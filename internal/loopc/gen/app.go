package gen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/loopc"
)

// App adapts a generated program to core.App, so generated programs run
// through exactly the measurement surface the hand-ported applications
// use — the exp engine, the sweep CLI, the harness experiments.
type App struct {
	ps *ProgramSpec
	p  *loopc.Program
}

// NewApp wraps a spec. The spec must pass Check (Build errors and
// envelope violations surface here, before any run).
func NewApp(ps *ProgramSpec) (*App, error) {
	if err := ps.Check(); err != nil {
		return nil, err
	}
	p, err := ps.Build()
	if err != nil {
		return nil, err
	}
	return &App{ps: ps, p: p}, nil
}

// AppForSeed generates the program for a seed and wraps it. Generated
// programs pass Check by construction, so this cannot fail.
func AppForSeed(seed int64) *App {
	a, err := NewApp(Generate(seed))
	if err != nil {
		panic(fmt.Sprintf("gen: AppForSeed(%d): %v", seed, err))
	}
	return a
}

// ParseSeed recognizes the "gen-<seed>" application-name form used on
// the experiment surface (dsmrun -app gen-42, spec keys) and returns
// the seed. Only the canonical decimal form is a name: a sign, a
// leading zero or a value past int64 is rejected, so one program never
// has two names. Record validation calls this per line, so it does not
// allocate.
func ParseSeed(name string) (int64, bool) {
	digits, ok := strings.CutPrefix(name, "gen-")
	if !ok || digits == "" || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	var seed int64
	for i := 0; i < len(digits); i++ {
		d := int64(digits[i]) - '0'
		if d < 0 || d > 9 || seed > (math.MaxInt64-d)/10 {
			return 0, false
		}
		seed = seed*10 + d
	}
	return seed, true
}

// Spec returns the underlying program spec.
func (a *App) Spec() *ProgramSpec { return a.ps }

// Program returns the built IR.
func (a *App) Program() *loopc.Program { return a.p }

func (a *App) Name() string { return a.ps.Name }

// Config ignores the scale: a generated program has exactly one size,
// carried in its spec, so every scale maps to it (the corpus is sized
// like SmallScale and meant for correctness work, not modeling).
func (a *App) Config(scale core.Scale, procs int) core.Config {
	return core.Config{Procs: procs, N1: a.ps.N, Iters: a.ps.Iters, Warmup: Warmup}
}

func (a *App) Versions() []core.Version {
	return []core.Version{core.Seq, core.SPFGen, core.XHPFGen}
}

func (a *App) Run(v core.Version, cfg core.Config) (core.Result, error) {
	switch v {
	case core.Seq:
		return loopc.RunSeq(a.ps.Name, cfg, a.p)
	case core.SPFGen:
		return loopc.RunSPF(a.ps.Name, core.SPFGen, cfg, a.p)
	case core.XHPFGen:
		return loopc.RunXHPF(a.ps.Name, core.XHPFGen, cfg, a.p)
	}
	return core.Result{}, fmt.Errorf("gen: %s: unsupported version %q", a.ps.Name, v)
}

// ExpectedChecksum is the oracle checksum version v must produce at the
// given processor count (bitwise — see loopc.Oracle). The iteration
// count includes the warm-up iteration, matching the measured runners.
func (a *App) ExpectedChecksum(v core.Version, procs int) (float64, error) {
	part := loopc.PartitionFor(v)
	if part == nil {
		return 0, fmt.Errorf("gen: %s: no oracle partition for version %q", a.ps.Name, v)
	}
	return loopc.Oracle(a.p, a.ps.N, a.ps.Iters+Warmup, procs, part)
}
