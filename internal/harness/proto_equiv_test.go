package harness

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// runProtocols runs one (application, version, procs) under every
// protocol, in proto.Names() order.
func runProtocols(e *exp.Engine, app string, v core.Version, procs int) ([]core.Result, error) {
	var out []core.Result
	for _, p := range proto.Names() {
		res, err := e.Run(small(app, v, procs, p))
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// TestProtocolEquivalence is the cross-protocol equivalence table: every
// DSM version of every application — including the optimized variants,
// whose push, broadcast and aggregation paths interact with the
// protocol differently — runs under both coherence protocols at 1, 2, 4
// and 8 nodes. The checksums must be bit-identical — the protocol may
// change only virtual time, message counts and byte volumes — and, for
// the representative version, the three home-placement policies of the
// home-based protocol must also leave the checksum bit-identical (home
// migration moves master copies, never values), and a repeated run must
// reproduce the per-protocol message and byte counts exactly (the
// simulator is deterministic, so any drift is a protocol-state leak).
func TestProtocolEquivalence(t *testing.T) {
	for _, a := range exp.PaperApps() {
		rep := DSMVersionOf(a)
		for _, v := range DSMVersions(a) {
			for _, procs := range ProtocolProcCounts {
				t.Run(fmt.Sprintf("%s/%s/p%d", a.Name(), v, procs), func(t *testing.T) {
					e := exp.New()
					first, err := runProtocols(e, a.Name(), v, procs)
					if err != nil {
						t.Fatal(err)
					}
					for _, res := range first[1:] {
						if res.Checksum != first[0].Checksum {
							t.Errorf("checksum under %s = %v, want %v (as under %s)",
								res.Protocol, res.Checksum, first[0].Checksum, first[0].Protocol)
						}
					}
					if v != rep {
						return
					}
					for _, pol := range proto.PolicyNames() {
						res, err := e.Run(underPolicy(small(a.Name(), v, procs, ""), pol))
						if err != nil {
							t.Fatalf("hlrc/%s: %v", pol, err)
						}
						if res.Checksum != first[0].Checksum {
							t.Errorf("checksum under hlrc/%s = %v, want %v", pol, res.Checksum, first[0].Checksum)
						}
						if procs == 1 && res.Migrations != 0 {
							t.Errorf("single-node run under hlrc/%s migrated %d pages", pol, res.Migrations)
						}
					}
					again, err := runProtocols(e, a.Name(), v, procs)
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range proto.Names() {
						f, g := first[i], again[i]
						if f.Protocol != p || g.Protocol != p {
							t.Fatalf("result order: got %s/%s, want %s", f.Protocol, g.Protocol, p)
						}
						if f.Checksum != g.Checksum || f.Time != g.Time ||
							f.Stats.TotalMsgs() != g.Stats.TotalMsgs() || f.Stats.TotalBytes() != g.Stats.TotalBytes() {
							t.Errorf("%s not repeatable: (checksum %v, time %v, msgs %d, bytes %d) vs (%v, %v, %d, %d)",
								p, f.Checksum, f.Time, f.Stats.TotalMsgs(), f.Stats.TotalBytes(),
								g.Checksum, g.Time, g.Stats.TotalMsgs(), g.Stats.TotalBytes())
						}
					}
				})
			}
		}
	}
}

// TestProtocolEquivalenceCorpus runs the same cross-protocol table over
// a sample of the generated-program corpus: the spf-gen version of each
// sampled program must produce bit-identical checksums under both
// coherence protocols and all three home-placement policies. The
// generated programs mix parity guards, serial interludes and in-place
// multi-writer updates the hand-ported applications never combine —
// the pattern that caught the twin-apply protocol bug (see
// difftest.TestTwinApplyRegression).
func TestProtocolEquivalenceCorpus(t *testing.T) {
	for _, seed := range corpusSampleSeeds(t) {
		a, err := exp.AppByName(fmt.Sprintf("gen-%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range ProtocolProcCounts {
			t.Run(fmt.Sprintf("%s/p%d", a.Name(), procs), func(t *testing.T) {
				e := exp.New()
				first, err := runProtocols(e, a.Name(), core.SPFGen, procs)
				if err != nil {
					t.Fatal(err)
				}
				for _, res := range first[1:] {
					if res.Checksum != first[0].Checksum {
						t.Errorf("checksum under %s = %v, want %v (as under %s)",
							res.Protocol, res.Checksum, first[0].Checksum, first[0].Protocol)
					}
				}
				for _, pol := range proto.PolicyNames() {
					res, err := e.Run(underPolicy(small(a.Name(), core.SPFGen, procs, ""), pol))
					if err != nil {
						t.Fatalf("hlrc/%s: %v", pol, err)
					}
					if res.Checksum != first[0].Checksum {
						t.Errorf("checksum under hlrc/%s = %v, want %v", pol, res.Checksum, first[0].Checksum)
					}
					if procs == 1 && res.Migrations != 0 {
						t.Errorf("single-node run under hlrc/%s migrated %d pages", pol, res.Migrations)
					}
				}
			})
		}
	}
}
