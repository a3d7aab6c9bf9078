package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/loopc"
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
// checksums bit-identical to their hand-coded counterparts at every
// node count, ragged ones included, under both coherence protocols,
// and a repeated run must reproduce the message and byte counts
// exactly.
func TestCompiledEquivalence(t *testing.T) {
	for _, a := range CompiledApps() {
		for _, pair := range CompiledPairs() {
			hand, gen := pair[0], pair[1]
			for _, procs := range compiledProcCounts {
				for _, p := range proto.Names() {
					t.Run(fmt.Sprintf("%s/%s/p%d/%s", a.Name(), gen, procs, p), func(t *testing.T) {
						r := NewRunner(procs, core.SmallScale)
						r.Protocol = p
						h, err := r.Run(a, hand)
						if err != nil {
							t.Fatal(err)
						}
						g, err := r.Run(a, gen)
						if err != nil {
							t.Fatal(err)
						}
						if g.Checksum != h.Checksum {
							t.Errorf("%s checksum = %v, want %v (as %s)", gen, g.Checksum, h.Checksum, hand)
						}
						again := NewRunner(procs, core.SmallScale)
						again.Protocol = p
						g2, err := again.Run(a, gen)
						if err != nil {
							t.Fatal(err)
						}
						if g2.Checksum != g.Checksum || g2.Time != g.Time ||
							g2.Stats.TotalMsgs() != g.Stats.TotalMsgs() || g2.Stats.TotalBytes() != g.Stats.TotalBytes() {
							t.Errorf("%s not repeatable: (checksum %v, time %v, msgs %d, bytes %d) vs (%v, %v, %d, %d)",
								gen, g.Checksum, g.Time, g.Stats.TotalMsgs(), g.Stats.TotalBytes(),
								g2.Checksum, g2.Time, g2.Stats.TotalMsgs(), g2.Stats.TotalBytes())
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
	for _, a := range CompiledApps() {
		for _, pair := range CompiledPairs() {
			for _, procs := range compiledProcCounts {
				r := NewRunner(procs, core.SmallScale)
				hand, err := r.Run(a, pair[0])
				if err != nil {
					t.Fatal(err)
				}
				gen, err := r.Run(a, pair[1])
				if err != nil {
					t.Fatal(err)
				}
				if gen.Stats.TotalMsgs() != hand.Stats.TotalMsgs() || gen.Stats.TotalBytes() != hand.Stats.TotalBytes() {
					t.Errorf("%s/%s p%d traffic (msgs %d, bytes %d) != %s (msgs %d, bytes %d)",
						a.Name(), pair[1], procs, gen.Stats.TotalMsgs(), gen.Stats.TotalBytes(),
						pair[0], hand.Stats.TotalMsgs(), hand.Stats.TotalBytes())
				}
				if gen.Time != hand.Time {
					t.Errorf("%s/%s p%d time %v != %s time %v", a.Name(), pair[1], procs, gen.Time, pair[0], hand.Time)
				}
			}
		}
	}
}

// TestMessagePassingMatchesSequential holds every application's
// message-passing versions (xhpf, pvme, xhpf-gen) to the sequential
// checksum at every node count from 1 to 8, most of which do not divide
// the small grids: bitwise for the six applications whose checksum is
// an index-order float32 fold, and to 1e-9 for 3-D FFT, whose transform
// legitimately differs in the last ulp with the slab count.
func TestMessagePassingMatchesSequential(t *testing.T) {
	for _, a := range exp.Apps() {
		seq, err := NewRunner(1, core.SmallScale).Run(a, core.Seq)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range a.Versions() {
			if rt := core.Describe(v).Runtime; rt == core.SeqRuntime || rt.OnDSM() {
				continue
			}
			for procs := 1; procs <= 8; procs++ {
				res, err := NewRunner(procs, core.SmallScale).Run(a, v)
				if err != nil {
					t.Errorf("%s/%s p%d: %v", a.Name(), v, procs, err)
					continue
				}
				same := res.Checksum == seq.Checksum
				if a.Name() == "3-D FFT" {
					same = math.Abs(res.Checksum-seq.Checksum) <= 1e-9*math.Abs(seq.Checksum)
				}
				if !same {
					t.Errorf("%s/%s p%d: checksum %v, sequential %v", a.Name(), v, procs, res.Checksum, seq.Checksum)
				}
			}
		}
	}
}

// corpusSampleSeeds is the generated-program slice the harness
// equivalence tests fold in: a spread across the committed corpus
// (internal/loopc/testdata/corpus), trimmed under -short.
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
	// The message-passing back end stores an array in one of two ways
	// (loopc.RunXHPF): replicated when a serial nest uses it or a
	// parallel nest reads it through a non-row index, block and halo
	// otherwise. The sample must reach both.
	var replicating, allBanded int
	for _, seed := range corpusSampleSeeds(t) {
		a, err := exp.AppByName(fmt.Sprintf("gen-%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		ga := a.(*gen.App)
		steps, err := loopc.Plan(ga.Program())
		if err != nil {
			t.Fatal(err)
		}
		replicates := false
		for _, st := range steps {
			replicates = replicates || !st.Parallel || len(st.FullRead) > 0
		}
		if replicates {
			replicating++
		} else {
			allBanded++
		}
		for _, procs := range ProtocolProcCounts {
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
						r := NewRunner(procs, core.SmallScale)
						r.Protocol = p
						res, err := r.Run(a, v)
						if err != nil {
							t.Fatal(err)
						}
						if res.Checksum != want {
							t.Errorf("%s checksum = %x, oracle %x", v, res.Checksum, want)
						}
						again := NewRunner(procs, core.SmallScale)
						again.Protocol = p
						res2, err := again.Run(a, v)
						if err != nil {
							t.Fatal(err)
						}
						if res2.Checksum != res.Checksum || res2.Time != res.Time ||
							res2.Stats.TotalMsgs() != res.Stats.TotalMsgs() || res2.Stats.TotalBytes() != res.Stats.TotalBytes() {
							t.Errorf("%s not repeatable: (checksum %v, time %v, msgs %d, bytes %d) vs (%v, %v, %d, %d)",
								v, res.Checksum, res.Time, res.Stats.TotalMsgs(), res.Stats.TotalBytes(),
								res2.Checksum, res2.Time, res2.Stats.TotalMsgs(), res2.Stats.TotalBytes())
						}
					})
				}
			}
		}
	}
	if replicating == 0 || allBanded == 0 {
		t.Errorf("corpus sample has %d programs with replicated arrays and %d with none: need both storage paths of xhpf-gen",
			replicating, allBanded)
	}
}

// TestCompilerExperimentOutput drives the printed experiment.
func TestCompilerExperimentOutput(t *testing.T) {
	r := NewRunner(4, core.SmallScale)
	var sb strings.Builder
	if err := Compiler(&sb, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Jacobi", "RB-SOR", string(core.SPFGen), string(core.XHPFGen)} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("compiler experiment output missing %q", want)
		}
	}
}
