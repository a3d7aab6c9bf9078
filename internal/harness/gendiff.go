package harness

import (
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/loopc/difftest"
	"repro/internal/loopc/gen"
)

// The generator-differential experiment: random-but-deterministic loopc
// programs (internal/loopc/gen) run through every backend the compiler
// targets — the sequential interpreter, spf-gen under both protocols
// and all home policies, xhpf-gen — and every checksum is compared
// bitwise against the partition-aware oracle, twice per configuration
// for repeat determinism. The hand-ported applications pin a handful of
// carefully chosen access patterns; the generated programs sweep the
// space between them (parity guards, skewed bands, serial interludes,
// scalar reductions) and have already caught a real protocol bug (see
// difftest.TestTwinApplyRegression).

// GenDiffSeeds are the generator seeds the experiment sweeps.
var GenDiffSeeds = func() []int64 {
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}()

// GenDiffProcs are the processor counts of the differential lattice.
var GenDiffProcs = []int{2, 4, 8}

// GenDiff runs the differential lattice over GenDiffSeeds and reports
// one line per program. Any divergence fails the experiment; dsmrun
// -gen <seed> replays and minimizes it. It checks
// generated programs against their oracle and uses no engine, so it is
// not a render over records: it reads only the engine's calibration.
var GenDiff = Table{Name: "gendiff", Run: runGenDiff}

func runGenDiff(w io.Writer, e *exp.Engine, base exp.Spec) error {
	costs, app := e.Costs.WithContention(base.Contention), e.App
	opts := difftest.Options{Procs: GenDiffProcs, Repeats: 2, Costs: &costs, App: &app}
	fmt.Fprintf(w, "Generator differential: seq vs spf-gen (lrc, hlrc x policies) vs xhpf-gen vs oracle, procs=%v\n", GenDiffProcs)
	fmt.Fprintf(w, "%-8s %4s %6s %6s  %s\n", "program", "n", "nests", "iters", "status")
	fmt.Fprintln(w, "----------------------------------------")
	var failed int
	for _, seed := range GenDiffSeeds {
		ps := gen.Generate(seed)
		divs, err := difftest.Check(ps, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", ps.Name, err)
		}
		status := "ok"
		if len(divs) > 0 {
			status = fmt.Sprintf("DIVERGED (%d)", len(divs))
			failed++
		}
		fmt.Fprintf(w, "%-8s %4d %6d %6d  %s\n", ps.Name, ps.N, len(ps.Nests), ps.Iters, status)
		for _, d := range divs {
			fmt.Fprintf(w, "    %s\n", d)
		}
	}
	if failed > 0 {
		return fmt.Errorf("gendiff: %d of %d generated programs diverged (replay: dsmrun -gen <seed>)", failed, len(GenDiffSeeds))
	}
	return nil
}
