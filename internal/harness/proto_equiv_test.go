package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// runRecord is the record of s's run on e.
func runRecord(t *testing.T, e *exp.Engine, s exp.Spec) exp.Record {
	t.Helper()
	res, err := e.Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Key(), err)
	}
	return exp.RecordOf(s, res, nil)
}

// checkProtocols runs one (application, version, procs) under every
// protocol, and under the home-based one with every home policy, and
// holds each run's checksum to the first's (exp.Agree: bitwise). A
// single-node run must not migrate. It returns the per-protocol
// records, in proto.Names() order.
func checkProtocols(t *testing.T, e *exp.Engine, app string, v core.Version, procs int) []exp.Record {
	var recs []exp.Record
	for _, p := range proto.Names() {
		recs = append(recs, runRecord(t, e, small(app, v, procs, p)))
	}
	for _, pol := range proto.PolicyNames() {
		recs = append(recs, runRecord(t, e, underPolicy(small(app, v, procs, ""), pol)))
	}
	for _, rec := range recs {
		if err := exp.Agree(rec, recs[0]); err != nil {
			t.Error(err)
		}
		if procs == 1 && rec.Migrations != 0 {
			t.Errorf("single-node run %s migrated %d pages", rec.Key(), rec.Migrations)
		}
	}
	return recs[:len(proto.Names())]
}

// TestProtocolEquivalence is the cross-protocol equivalence table: every
// DSM version of every application — including the optimized variants,
// whose push, broadcast and aggregation paths interact with the
// protocol differently — runs under both coherence protocols and the
// three home-placement policies at 1, 2, 4 and 8 nodes. The checksums
// must agree bitwise — the protocol may change only virtual time,
// message counts and byte volumes, and home migration moves master
// copies, never values — and, for the representative version, a
// repeated run on a fresh engine must reproduce each protocol's record
// exactly (the simulator is deterministic, so any drift is a
// protocol-state leak).
func TestProtocolEquivalence(t *testing.T) {
	for _, a := range exp.PaperApps() {
		for _, v := range a.Versions() {
			if !core.Describe(v).Runtime.OnDSM() {
				continue
			}
			for _, procs := range ProtocolProcCounts {
				t.Run(fmt.Sprintf("%s/%s/p%d", a.Name(), v, procs), func(t *testing.T) {
					first := checkProtocols(t, exp.New(), a.Name(), v, procs)
					if v != DSMVersionOf(a) {
						return
					}
					for i, p := range proto.Names() {
						if again := runRecord(t, exp.New(), small(a.Name(), v, procs, p)); !reflect.DeepEqual(again, first[i]) {
							t.Errorf("%s not repeatable:\n%+v\nvs\n%+v", p, again, first[i])
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
		name := fmt.Sprintf("gen-%d", seed)
		for _, procs := range ProtocolProcCounts {
			t.Run(fmt.Sprintf("%s/p%d", name, procs), func(t *testing.T) {
				checkProtocols(t, exp.New(), name, core.SPFGen, procs)
			})
		}
	}
}

// TestEmptyBlocksAgree: with more processors than Jacobi's and
// RB-SOR's interior rows, the trailing blocks are empty, and the
// hand-coded exchanges skip them (xhpf's Local.Neighbors); with more
// than NBF's molecules over its partner window, a block is narrower
// than the halo it feeds, and the coordinate exchange fills each halo
// from several predecessors. 3-D FFT's 8 planes leave empty slabs from
// 9 processors on, and MGS, IGrid and NBF hold only their own rows: the
// message-passing versions of all four run on storage sized to their
// block. The answer still agrees with seq's.
func TestEmptyBlocksAgree(t *testing.T) {
	e := exp.New()
	mp := []core.Version{core.XHPF, core.PVMe}
	wide := []int{9, 16, 24, 32}
	for _, c := range []struct {
		app      string
		versions []core.Version
		procs    []int
	}{
		{"Jacobi", []core.Version{core.PVMe}, []int{9, 12}},
		{"RB-SOR", []core.Version{core.PVMe}, []int{9, 12}},
		{"NBF", []core.Version{core.PVMe}, []int{17}},
		{"NBF", mp, wide},
		{"3-D FFT", mp, wide},
		{"MGS", mp, wide},
		{"IGrid", mp, wide},
	} {
		seq := runRecord(t, e, small(c.app, core.Seq, 1, ""))
		for _, v := range c.versions {
			for _, p := range c.procs {
				if err := exp.Agree(runRecord(t, e, small(c.app, v, p, "")), seq); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestJacobiPushEmptyBlocksAgree: Jacobi tmk-push pushes boundary rows
// only to neighbours whose blocks are non-empty. At small scale the
// trailing blocks are empty from 10 processors on; every processor
// count up to 32 runs under both protocols and agrees with seq.
func TestJacobiPushEmptyBlocksAgree(t *testing.T) {
	e := exp.New()
	seq := runRecord(t, e, small("Jacobi", core.Seq, 1, ""))
	for procs := 1; procs <= 32; procs++ {
		for _, p := range proto.Names() {
			s := small("Jacobi", core.TmkPush, procs, p)
			res, err := e.Run(s)
			if err == nil {
				err = exp.Agree(exp.RecordOf(s, res, nil), seq)
			}
			if err != nil {
				t.Errorf("%s: %v", s.Key(), err)
			}
		}
	}
}
