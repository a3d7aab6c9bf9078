package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/loopc/gen"
)

// baselines is what the output checks compare a stream against,
// computed in set-up: each application's sequential checksum, and the
// oracle checksum of each generated program.
type baselines struct {
	seqSum map[string]float64 // application -> sequential checksum
	oracle map[string]float64 // spec key -> checksum a generated program must produce
}

// seqOf is the sequential run of a spec's application. A workload uses
// one scale, so the application's name identifies it.
func seqOf(s exp.Spec) exp.Spec {
	s = exp.SeqSpecOf(s)
	s.Protocol, s.Contention = "", 0
	return s
}

// runBaselines runs the sequential version of every application in the
// list once and evaluates the oracle for every generated-program spec.
func runBaselines(specs []exp.Spec) (baselines, error) {
	b := baselines{seqSum: map[string]float64{}, oracle: map[string]float64{}}
	e := exp.New()
	for _, s := range specs {
		if _, done := b.seqSum[s.App]; !done {
			res, err := e.Run(seqOf(s))
			if err != nil {
				return b, fmt.Errorf("baseline %s: %w", seqOf(s).Key(), err)
			}
			b.seqSum[s.App] = res.Checksum
		}
		if seed, ok := gen.ParseSeed(s.App); ok && s.Version != core.Seq {
			want, err := gen.AppForSeed(seed).ExpectedChecksum(s.Version, s.Procs)
			if err != nil {
				return b, fmt.Errorf("oracle %s: %w", s.Key(), err)
			}
			b.oracle[s.Key()] = want
		}
	}
	return b, nil
}

// linesOf splits a JSON-lines document into its lines.
func linesOf(doc []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(doc, []byte("\n")), []byte("\n"))
}

// seqTolerance is how far a parallel checksum may sit from the
// sequential one, relative: reductions associate differently across
// processor counts, nothing else may differ.
const seqTolerance = 1e-9

// checkStream checks one JSON-lines stream against its spec list and
// returns how many records were expected and how many failed a check.
// A record fails when it is missing, malformed, invalid, for the wrong
// spec, carries a run error, strays from the sequential checksum, is
// not bitwise equal to its oracle (generated programs) or to the other
// records of its (app, version, procs, scale) group — protocol, home
// policy and contention must not change a result.
func checkStream(base baselines, specs []exp.Spec, stream []byte) (attempted, failed int) {
	lines := linesOf(stream)
	if len(lines) != len(specs) {
		return len(specs), len(specs)
	}
	group := map[exp.Spec]uint64{}
	for i, line := range lines {
		rec, err := exp.ValidateLine(line)
		if err != nil || rec.Error != "" || rec.Spec != specs[i] {
			failed++
			continue
		}
		bits := math.Float64bits(rec.Checksum)
		g := exp.Spec{App: rec.App, Version: rec.Version, Procs: rec.Procs, Scale: rec.Scale}
		first, seen := group[g]
		if !seen {
			group[g] = bits
			first = bits
		}
		seq := base.seqSum[rec.App]
		want, hasOracle := base.oracle[rec.Key()]
		switch {
		case bits != first,
			math.Abs(rec.Checksum-seq) > seqTolerance*math.Abs(seq),
			hasOracle && bits != math.Float64bits(want):
			failed++
		}
	}
	return len(specs), failed
}

// virtRow is one record's virtual result: what a host-speed change must
// leave exactly as it was.
type virtRow struct {
	Key      string  `json:"key"`
	TimeNS   int64   `json:"time_ns"`
	Msgs     int64   `json:"msgs"`
	Bytes    int64   `json:"bytes"`
	Checksum float64 `json:"checksum"`
}

// virtRows extracts the virtual results of a stream. Lines that do not
// parse are skipped; the output checks have already counted them.
func virtRows(stream []byte) []virtRow {
	var rows []virtRow
	for _, line := range linesOf(stream) {
		var rec exp.Record
		if json.Unmarshal(line, &rec) == nil && rec.Error == "" {
			rows = append(rows, virtRow{rec.Key(), rec.TimeNanos, rec.Msgs, rec.Bytes, rec.Checksum})
		}
	}
	return rows
}

func virtPath(name string) string { return filepath.Join("testdata", "virt_"+name+".jsonl") }

// loadVirt reads a committed reference, keyed by spec.
func loadVirt(name string) (map[string]virtRow, error) {
	data, err := os.ReadFile(virtPath(name))
	if err != nil {
		return nil, err
	}
	ref := map[string]virtRow{}
	for _, line := range linesOf(data) {
		var r virtRow
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", virtPath(name), err)
		}
		ref[r.Key] = r
	}
	return ref, nil
}

// drift counts the rows that differ from their reference row.
func drift(ref map[string]virtRow, rows []virtRow) int {
	n := 0
	for _, r := range rows {
		if want, ok := ref[r.Key]; ok && (want.TimeNS != r.TimeNS || want.Msgs != r.Msgs || want.Bytes != r.Bytes ||
			math.Float64bits(want.Checksum) != math.Float64bits(r.Checksum)) {
			n++
		}
	}
	return n
}

// updateVirt rewrites the three references from cold sweeps of the
// lists, in key order.
func updateVirt() error {
	for _, name := range []string{"dsm-mid", "mp-mid", "churn-small"} {
		w := workloadByName(name)
		st, err := w.setup(defaultSeed, false)
		if err != nil {
			return err
		}
		out, err := w.rep(st, nil)
		if err != nil {
			return err
		}
		if _, failed := w.check(st, out); failed != 0 {
			return fmt.Errorf("%s: %d records fail the output checks; refusing to pin them", name, failed)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		rows := virtRows(out.stream)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		for _, r := range rows {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		if err := os.WriteFile(virtPath(name), buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", virtPath(name), len(st.specs))
	}
	return nil
}
