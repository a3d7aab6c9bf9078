package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loopc"
	"repro/internal/loopc/gen"
	"repro/internal/model"
)

// specSize is the minimizer's progress measure.
func specSize(ps *gen.ProgramSpec) int {
	size := ps.N + ps.Iters
	for _, ns := range ps.Nests {
		size += 10 + len(ns.Stmts)
	}
	return size
}

// tamperedOracle fabricates a divergence without touching any product
// code: it compares the real spf-gen run against the oracle of a copy
// whose first reachable literal is doubled (via Mutate's literal-scale
// edit) — the observable a genuine constant-folding bug in the code
// generator would produce. Programs where no literal reaches the
// checksum don't fail, so the minimizer is forced to keep a live one.
func tamperedOracle(t *testing.T, procs int) func(*gen.ProgramSpec) bool {
	t.Helper()
	return func(ps *gen.ProgramSpec) bool {
		base := string(gen.Mutate(ps, nil).JSON())
		var tam *gen.ProgramSpec
		for arg := byte(1); arg < 32; arg += 4 { // factor-2 scale, rotating nests
			if c := gen.Mutate(ps, []byte{9, arg}); string(c.JSON()) != base {
				tam = c
				break
			}
		}
		if tam == nil {
			return false // no literals left to tamper with
		}
		app, err := gen.NewApp(ps)
		if err != nil {
			return false
		}
		cfg := app.Config(core.SmallScale, procs)
		cfg.Costs = model.SP2()
		cfg.App = model.DefaultAppCosts()
		res, err := app.Run(core.SPFGen, cfg)
		if err != nil {
			return false
		}
		p, err := tam.Build()
		if err != nil {
			return false
		}
		want, err := loopc.Oracle(p, tam.N, tam.Iters+gen.Warmup, procs, loopc.SPFPartition)
		if err != nil {
			return false
		}
		return res.Checksum != want
	}
}

// TestInjectedDivergenceShrinksToRepro is the harness's own mutation
// test: inject a divergence (check spf-gen against a tampered oracle),
// confirm the differential machinery sees it, and confirm the
// minimizer produces a strictly smaller, still-valid, still-failing
// spec whose repro files land on disk.
func TestInjectedDivergenceShrinksToRepro(t *testing.T) {
	const procs = 4
	fail := tamperedOracle(t, procs)
	var victim *gen.ProgramSpec
	for _, seed := range corpusSeeds() {
		ps := gen.Generate(seed)
		if fail(ps) {
			victim = ps
			break
		}
	}
	if victim == nil {
		// Every generated program carries literals in live expressions;
		// doubling one must move some checksum.
		t.Fatal("no corpus seed notices a doubled literal — generator lost its literal coverage")
	}

	min := Minimize(victim, fail)
	if err := min.Check(); err != nil {
		t.Fatalf("minimized spec invalid: %v", err)
	}
	if !fail(min) {
		t.Fatal("minimized spec no longer fails")
	}
	if specSize(min) >= specSize(victim) {
		t.Fatalf("minimizer made no progress: size %d -> %d", specSize(victim), specSize(min))
	}

	dir := filepath.Join(t.TempDir(), "failures")
	path, err := WriteRepro(dir, min, []Divergence{{
		Program: min.Name, Seed: min.Seed, Version: core.SPFGen, Procs: procs,
		Kind: "checksum", Detail: "injected: compared against a doubled-literal oracle",
	}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := gen.Parse(data)
	if err != nil {
		t.Fatalf("repro JSON does not parse: %v", err)
	}
	if back.Name != min.Name {
		t.Fatalf("repro round trip changed the name: %q != %q", back.Name, min.Name)
	}
	report, err := os.ReadFile(filepath.Join(dir, min.Name+".repro.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "gen.MustParse(`") {
		t.Fatal("repro report lacks the committable Go literal")
	}
}

// TestMinimizeNoFalseFailure: a predicate that never fires leaves the
// spec untouched.
func TestMinimizeUnreproducible(t *testing.T) {
	ps := gen.Generate(6)
	min := Minimize(ps, func(*gen.ProgramSpec) bool { return false })
	if string(min.JSON()) != string(ps.JSON()) {
		t.Fatal("Minimize changed a spec whose failure did not reproduce")
	}
}
