// Package exp is the declarative experiment API: the paper's
// contribution is a grid of measurements — (application × version ×
// processors × protocol) — and this package turns that grid into data.
// A Spec value fully identifies one simulated run; Axes expand
// cross-products of axis values into spec lists; and the Engine
// executes specs across host cores behind a concurrency-safe result
// cache, streaming deterministic, spec-ordered JSON-lines that are
// bit-identical regardless of worker count (the simulator itself is
// deterministic, and runs share no mutable state).
//
// Layering: exp sits above the application packages and below the
// harness — the harness's paper tables, the protocol/compiler/
// contention experiments, and both CLIs are all thin renderers over
// this engine.
package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/proto"
)

// Spec fully identifies one simulated run. Two runs with equal specs
// (under one engine calibration) produce bit-identical results, which
// is what makes the spec a sound cache key. Unequal specs may still
// name one run — not every version reads every axis — and the engine
// caches by what executes: see Canonical.
type Spec struct {
	// App is the application name as the paper uses it (see Apps).
	App string `json:"app"`
	// Version is the implementation strategy to run.
	Version core.Version `json:"version"`
	// Procs is the simulated processor count.
	Procs int `json:"procs"`
	// Scale selects the problem-size regime; the application maps it to
	// concrete sizes through core.App.Config. Empty resolves like
	// core.PaperScale.
	Scale core.Scale `json:"scale"`
	// Protocol selects the DSM coherence protocol (empty: the homeless
	// TreadMarks LRC). Message-passing versions ignore it: on their
	// specs it is a label (see Canonical), kept so DSM/MP sweeps stay
	// uniform.
	Protocol proto.Name `json:"protocol,omitempty"`
	// Contention is the shared contention encoding of
	// model.Costs.WithContention: 0 off, -1 serial NICs over an ideal
	// backplane, N > 0 serial NICs plus an N-way backplane bound.
	Contention int `json:"contention,omitempty"`
	// FIFO opts in to non-overtaking (src, dst)-pair delivery
	// (sim.Config.FIFOPairs).
	FIFO bool `json:"fifo,omitempty"`
	// HomePolicy selects the home-placement policy of the home-based
	// protocol (empty: static homes). Non-hlrc runs ignore it: on their
	// specs it is a label (see Canonical), kept so policy sweeps stay
	// uniform. The field is default-empty and omitted from keys when
	// empty, so pre-policy spec keys and cached streams stay valid.
	HomePolicy proto.PolicyName `json:"homepolicy,omitempty"`
}

// Normalize returns the spec with the run conventions applied: the
// sequential baseline always runs on one processor, and an explicit
// "static" home policy canonicalizes to empty (the default) so the
// same simulation never gets two spec identities.
func (s Spec) Normalize() Spec {
	if s.Version == core.Seq {
		s.Procs = 1
	}
	if s.HomePolicy == proto.StaticPolicy {
		s.HomePolicy = ""
	}
	return s
}

// Canonical returns the spec whose execution produces s's result: s
// normalized, with every axis its version does not read at its zero
// value. Specs with one canonical form differ in labels only — their
// records are equal but for the spec fields — so the engine simulates
// the canonical spec once and labels each record with the spec that was
// asked for. This is the one place that knows which axes are labels.
//
// The version's runtime (core.Describe) decides: seq reads none of
// procs, protocol, home policy, contention and FIFO; message passing
// reads neither the protocol nor the home policy; a DSM version reads
// every axis but the home policy under the homeless protocol, which has
// no homes. A version the table does not name is its own run.
func (s Spec) Canonical() Spec {
	s = s.Normalize()
	info := core.Describe(s.Version)
	switch {
	case info.Version == "":
	case info.Runtime == core.SeqRuntime:
		return Spec{App: s.App, Version: s.Version, Procs: 1, Scale: s.Scale}
	case !info.Runtime.OnDSM():
		s.Protocol, s.HomePolicy = "", ""
	case s.Protocol == "" || s.Protocol == proto.HomelessLRC:
		s.HomePolicy = ""
	}
	return s
}

// Key encodes the spec as a canonical, order-stable string: the cache
// key and the determinism anchor of sweep output. ParseKey inverts it.
// A warm sweep does little but take keys, so the key is appended into a
// stack buffer: the returned string is the only allocation.
func (s Spec) Key() string {
	var buf [128]byte
	return string(s.appendKey(buf[:0]))
}

// appendKey appends the key to b.
func (s Spec) appendKey(b []byte) []byte {
	b = append(b, "app="...)
	b = append(b, s.App...)
	b = append(b, "|version="...)
	b = append(b, s.Version...)
	b = append(b, "|procs="...)
	b = strconv.AppendInt(b, int64(s.Procs), 10)
	b = append(b, "|scale="...)
	b = append(b, s.Scale...)
	b = append(b, "|protocol="...)
	b = append(b, s.Protocol...)
	b = append(b, "|contention="...)
	b = strconv.AppendInt(b, int64(s.Contention), 10)
	if s.FIFO {
		b = append(b, "|fifo=1"...)
	} else {
		b = append(b, "|fifo=0"...)
	}
	if s.HomePolicy != "" {
		b = append(b, "|homepolicy="...)
		b = append(b, s.HomePolicy...)
	}
	return b
}

// ParseKey decodes a Key back into a Spec. It round-trips exactly:
// ParseKey(s.Key()) == s for every spec whose fields contain no '|' or
// '=' (no application or version name does).
func ParseKey(key string) (Spec, error) {
	var s Spec
	for _, field := range strings.Split(key, "|") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("exp: malformed key field %q in %q", field, key)
		}
		switch k {
		case "app":
			s.App = v
		case "version":
			s.Version = core.Version(v)
		case "scale":
			s.Scale = core.Scale(v)
		case "protocol":
			s.Protocol = proto.Name(v)
		case "homepolicy":
			s.HomePolicy = proto.PolicyName(v)
		case "procs", "contention", "fifo":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Spec{}, fmt.Errorf("exp: bad %s in key %q: %v", k, key, err)
			}
			switch k {
			case "procs":
				s.Procs = n
			case "contention":
				s.Contention = n
			case "fifo":
				s.FIFO = n != 0
			}
		default:
			return Spec{}, fmt.Errorf("exp: unknown key field %q in %q", k, key)
		}
	}
	return s, nil
}

// String returns the key (specs print as their identity).
func (s Spec) String() string { return s.Key() }

// Validate reports structural problems a run would only discover late:
// unknown protocol names, impossible processor counts, invalid
// contention encodings. Unknown app/version names are left to the
// engine, whose registry is the source of truth.
func (s Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("exp: spec has no application")
	}
	if s.Version == "" {
		return fmt.Errorf("exp: spec has no version")
	}
	if s.Procs < 1 {
		return fmt.Errorf("exp: spec procs %d < 1", s.Procs)
	}
	if s.Contention < -1 {
		return fmt.Errorf("exp: invalid contention %d (want 0, -1, or a positive backplane bound)", s.Contention)
	}
	switch s.Scale {
	case "", core.PaperScale, core.MidScale, core.SmallScale:
	default:
		return fmt.Errorf("exp: unknown scale %q", s.Scale)
	}
	if _, err := proto.Parse(string(s.Protocol)); err != nil {
		return err
	}
	if _, err := proto.ParsePolicy(string(s.HomePolicy)); err != nil {
		return err
	}
	return nil
}
