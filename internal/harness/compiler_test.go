package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/loopc/gen"
	"repro/internal/proto"
)

// compiledProcCounts is the node-count sweep of the hand-vs-generated
// gates: the protocol experiment's counts plus the ones that do not
// divide the 64-row test grids, where a decomposition that is not
// row-aligned goes wrong (the hand-coded message-passing Jacobi and
// RB-SOR once did, silently, and these tests only ran 1, 2, 4, 8).
var compiledProcCounts = []int{1, 2, 3, 4, 5, 7, 8}

// TestCompiledEquivalence is the acceptance gate of the loopc front
// end: for every kernel with an IR description (Jacobi and red-black
// SOR), the generated spf-gen and xhpf-gen versions must produce
// checksums that agree with their hand-coded counterparts' (exp.Agree:
// bitwise for these kernels) at every node count, ragged ones included,
// under both coherence protocols, and a repeated run on a fresh engine
// must reproduce the generated record exactly.
func TestCompiledEquivalence(t *testing.T) {
	for _, a := range compiledApps() {
		for _, pair := range compiledPairs() {
			hand, gen := pair[0], pair[1]
			for _, procs := range compiledProcCounts {
				for _, p := range proto.Names() {
					t.Run(fmt.Sprintf("%s/%s/p%d/%s", a.Name(), gen, procs, p), func(t *testing.T) {
						e := exp.New()
						h := runRecord(t, e, small(a.Name(), hand, procs, p))
						g := runRecord(t, e, small(a.Name(), gen, procs, p))
						if err := exp.Agree(g, h); err != nil {
							t.Error(err)
						}
						if g2 := runRecord(t, exp.New(), small(a.Name(), gen, procs, p)); !reflect.DeepEqual(g2, g) {
							t.Errorf("%s not repeatable:\n%+v\nvs\n%+v", gen, g2, g)
						}
					})
				}
			}
		}
	}
}

// TestCompiledTrafficMatchesHand pins the stronger property the
// lowering achieves on these kernels: the generated versions reproduce
// the hand-coded versions' virtual time and traffic exactly, not just
// their numerics — the compiler emits the same access ranges and the
// same communication sequence, over the same whole-row decomposition,
// so this holds at ragged node counts too.
func TestCompiledTrafficMatchesHand(t *testing.T) {
	for _, a := range compiledApps() {
		for _, pair := range compiledPairs() {
			for _, procs := range compiledProcCounts {
				e := exp.New()
				hand, gen := runRecord(t, e, small(a.Name(), pair[0], procs, "")), runRecord(t, e, small(a.Name(), pair[1], procs, ""))
				if gen.TimeNanos != hand.TimeNanos || gen.Msgs != hand.Msgs || gen.Bytes != hand.Bytes {
					t.Errorf("%s: %d ns, %d msgs, %d bytes; %s: %d ns, %d msgs, %d bytes",
						gen.Key(), gen.TimeNanos, gen.Msgs, gen.Bytes, hand.Version, hand.TimeNanos, hand.Msgs, hand.Bytes)
				}
			}
		}
	}
}

// TestMessagePassingMatchesSequential holds every application's
// message-passing versions (xhpf, pvme, xhpf-gen) to the sequential
// checksum (exp.Agree) at every node count from 1 to 8, most of which
// do not divide the small grids.
func TestMessagePassingMatchesSequential(t *testing.T) {
	for _, a := range exp.Apps() {
		seq := runRecord(t, exp.New(), small(a.Name(), core.Seq, 1, ""))
		for _, v := range a.Versions() {
			if rt := core.Describe(v).Runtime; rt == core.SeqRuntime || rt.OnDSM() {
				continue
			}
			for procs := 1; procs <= 8; procs++ {
				if err := exp.Agree(runRecord(t, exp.New(), small(a.Name(), v, procs, "")), seq); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestEveryVersionDigests: Jacobi, RB-SOR and IGrid digest their output
// grid, MGS its basis and Shallow its p, u and v in every version, and
// NBF weighs its coordinates (wsum), under both protocols, and every
// digest and wsum agrees with seq's — Agree compares them, but only
// where both records carry one, so a version that stopped computing
// its own would pass it unseen.
func TestEveryVersionDigests(t *testing.T) {
	for _, app := range []string{"Jacobi", "RB-SOR", "IGrid", "MGS", "Shallow", "NBF"} {
		a, err := exp.AppByName(app)
		if err != nil {
			t.Fatal(err)
		}
		seq := runRecord(t, exp.New(), small(app, core.Seq, 1, ""))
		for _, v := range a.Versions() {
			for _, p := range proto.Names() {
				rec := runRecord(t, exp.New(), small(app, v, 3, p))
				if app == "NBF" && rec.WSum == 0 {
					t.Errorf("%s: no wsum", rec.Key())
				} else if app != "NBF" && rec.Digest == 0 {
					t.Errorf("%s: no digest", rec.Key())
				} else if err := exp.Agree(rec, seq); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// corpusSampleSeeds is the generated-program slice the harness
// equivalence tests fold in: a spread across the committed corpus
// (internal/loopc/testdata/corpus), trimmed under -short. loopc's
// TestCorpusSampleReachesBothXHPFStorages holds the trimmed slice to
// reaching both of xhpf-gen's array storages.
func corpusSampleSeeds(t *testing.T) []int64 {
	seeds := []int64{3, 9, 17, 30, 40}
	if testing.Short() {
		return seeds[:2]
	}
	return seeds
}

// TestCompiledEquivalenceCorpus extends the compiled-equivalence gate
// beyond the hand-ported kernels: generated corpus programs have no
// hand-coded counterpart, so the generated backends are checked bitwise
// against the partition-aware oracle instead (plus repeatability),
// under both protocols for the DSM backend.
func TestCompiledEquivalenceCorpus(t *testing.T) {
	for _, seed := range corpusSampleSeeds(t) {
		a, err := exp.AppByName(fmt.Sprintf("gen-%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		ga := a.(*gen.App)
		for _, procs := range protocolProcCounts {
			for _, v := range ga.Versions() {
				info := core.Describe(v)
				if !info.Generated {
					continue
				}
				protocols := proto.Names()
				if !info.Runtime.OnDSM() {
					protocols = []proto.Name{""} // message passing: no DSM protocol
				}
				for _, p := range protocols {
					t.Run(fmt.Sprintf("%s/%s/p%d/%s", a.Name(), v, procs, p), func(t *testing.T) {
						want, err := ga.ExpectedChecksum(v, procs)
						if err != nil {
							t.Fatal(err)
						}
						rec := runRecord(t, exp.New(), small(a.Name(), v, procs, p))
						if rec.Checksum != want {
							t.Errorf("%s checksum = %x, oracle %x", v, rec.Checksum, want)
						}
						if again := runRecord(t, exp.New(), small(a.Name(), v, procs, p)); !reflect.DeepEqual(again, rec) {
							t.Errorf("%s not repeatable:\n%+v\nvs\n%+v", v, again, rec)
						}
					})
				}
			}
		}
	}
}

// TestCompilerExperimentOutput drives the printed experiment.
func TestCompilerExperimentOutput(t *testing.T) {
	var sb strings.Builder
	if err := compiler.Print(&sb, exp.New(), smallBase); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Jacobi", "RB-SOR", string(core.SPFGen), string(core.XHPFGen)} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("compiler experiment output missing %q", want)
		}
	}
}
