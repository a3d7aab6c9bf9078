package loopc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// stencilIR is a Jacobi-shaped two-nest program: 4-point stencil into
// scratch, copy back.
func stencilIR() *Program {
	ref := func(arr string, ro, co int) Expr { return Ref(At(arr, "i", ro, "j", co)) }
	interior := Loop{Lo: Ext(0, 1), Hi: Ext(1, -1)}
	row, col := interior, interior
	row.Var, col.Var = "i", "j"
	edges := func(i, j, n int) float32 {
		if i == 0 || j == 0 || i == n-1 || j == n-1 {
			return 1
		}
		return 0
	}
	return &Program{
		Name: "stencil",
		Arrays: []ArrayDecl{
			{Name: "data", Init: edges},
			{Name: "scratch", Init: edges},
		},
		Nests: []*Nest{
			{
				Name: "update", Row: row, Col: col,
				Stmts: []*Stmt{{LHS: At("scratch", "i", 0, "j", 0),
					RHS: Mul(Lit(0.25), Add(Add(Add(ref("data", -1, 0), ref("data", 1, 0)), ref("data", 0, -1)), ref("data", 0, 1)))}},
			},
			{
				Name: "copy", Row: row, Col: col,
				Stmts: []*Stmt{{LHS: At("data", "i", 0, "j", 0), RHS: ref("scratch", 0, 0)}},
			},
		},
		Result: "data",
	}
}

// redBlackIR is an in-place guarded 5-point relaxation (two colors).
func redBlackIR(guarded bool) *Program {
	ref := func(ro, co int) Expr { return Ref(At("u", "i", ro, "j", co)) }
	relax := Add(Mul(Lit(-0.25), ref(0, 0)),
		Mul(Lit(0.3125), Add(Add(Add(ref(-1, 0), ref(1, 0)), ref(0, -1)), ref(0, 1))))
	interior := Loop{Lo: Ext(0, 1), Hi: Ext(1, -1)}
	row, col := interior, interior
	row.Var, col.Var = "i", "j"
	edges := func(i, j, n int) float32 {
		if i == 0 || j == 0 || i == n-1 || j == n-1 {
			return 1
		}
		return 0
	}
	var nests []*Nest
	for color := 0; color < 2; color++ {
		nst := &Nest{
			Name: fmt.Sprintf("sweep%d", color), Row: row, Col: col,
			Stmts: []*Stmt{{LHS: At("u", "i", 0, "j", 0), RHS: relax}},
		}
		if guarded {
			nst.Guard = &Parity{Rem: color}
		}
		nests = append(nests, nst)
	}
	return &Program{
		Name:   "redblack",
		Arrays: []ArrayDecl{{Name: "u", Init: edges}},
		Nests:  nests,
		Result: "u",
	}
}

// oneSidedIR is a guarded in-place sweep that reads only the row below
// the point it writes: a slice [lo,hi) reads rows [lo+1,hi+1) of u and
// writes rows [lo,hi), so neither span contains the other.
func oneSidedIR() *Program {
	p := redBlackIR(true)
	p.Name = "onesided"
	for _, nst := range p.Nests {
		nst.Stmts[0].RHS = Add(Mul(Lit(0.5), Ref(At("u", "i", 1, "j", 0))), Lit(0.25))
	}
	return p
}

// reductionIR increments an integer-valued grid, then reduces its sum
// and max — exact in floating point, so every combining order agrees.
func reductionIR() *Program {
	full := Loop{Lo: Ext(0, 0), Hi: Ext(1, 0)}
	row, col := full, full
	row.Var, col.Var = "i", "j"
	a := func(ro, co int) Expr { return Ref(At("a", "i", ro, "j", co)) }
	return &Program{
		Name:    "sums",
		Arrays:  []ArrayDecl{{Name: "a", Init: func(i, j, n int) float32 { return float32((i + j) % 7) }}},
		Scalars: []string{"total", "peak"},
		Nests: []*Nest{
			{
				Name: "inc", Row: row, Col: col,
				Stmts: []*Stmt{{LHS: At("a", "i", 0, "j", 0), RHS: Add(a(0, 0), Lit(1))}},
			},
			{
				Name: "fold", Row: row, Col: col,
				Stmts: []*Stmt{
					{ReduceInto: "total", Op: ReduceSum, RHS: a(0, 0)},
					{ReduceInto: "peak", Op: ReduceMax, RHS: a(0, 0)},
				},
			},
		},
		Result: "a",
	}
}

// coeffReadIR reads a never-written coefficient array through a
// constant row index (b[0][j]) inside a DOALL nest. Legal — nothing
// writes b — but the rows read are unrelated to the executing slice,
// so the DSM backend must validate the whole region, not the slice's
// rows (regression: at n large enough that b spans several pages,
// workers used to read stale zeros from unvalidated pages).
func coeffReadIR() *Program {
	full := Loop{Lo: Ext(0, 0), Hi: Ext(1, 0)}
	row, col := full, full
	row.Var, col.Var = "i", "j"
	return &Program{
		Name: "coeff",
		Arrays: []ArrayDecl{
			{Name: "a"},
			{Name: "b", Init: func(i, j, n int) float32 { return float32(j%9 + 1) }},
		},
		Nests: []*Nest{{
			Name: "apply", Row: row, Col: col,
			Stmts: []*Stmt{{LHS: At("a", "i", 0, "j", 0),
				RHS: Add(Ref(At("a", "i", 0, "j", 0)), Ref(Access{Array: "b", Row: Index{Off: 0}, Col: Index{Var: "j"}}))}},
		}},
		Result: "a",
	}
}

// serialIR is a row recurrence: u[i][j] = u[i-1][j] + 1, genuinely
// serial in the row loop.
func serialIR() *Program {
	row := Loop{Var: "i", Lo: Ext(0, 1), Hi: Ext(1, 0)}
	col := Loop{Var: "j", Lo: Ext(0, 0), Hi: Ext(1, 0)}
	return &Program{
		Name:   "recurrence",
		Arrays: []ArrayDecl{{Name: "u", Init: func(i, j, n int) float32 { return float32(j % 3) }}},
		Nests: []*Nest{{
			Name: "scan", Row: row, Col: col,
			Stmts: []*Stmt{{LHS: At("u", "i", 0, "j", 0), RHS: Add(Ref(At("u", "i", -1, "j", 0)), Lit(1))}},
		}},
		Result: "u",
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	p := stencilIR()
	p.Result = "nope"
	if err := p.Validate(); err == nil {
		t.Error("undeclared result array not rejected")
	}
	p = stencilIR()
	p.Nests[0].Stmts[0].LHS.Array = "ghost"
	if err := p.Validate(); err == nil {
		t.Error("unknown LHS array not rejected")
	}
	p = stencilIR()
	p.Nests[0].Stmts[0].LHS.Row.Var = "k"
	if err := p.Validate(); err == nil {
		t.Error("unknown index var not rejected")
	}
	p = reductionIR()
	p.Nests[1].Stmts[1].ReduceInto = "total" // total via sum AND max
	if err := p.Validate(); err == nil {
		t.Error("conflicting reduction operators not rejected")
	}
}

func TestAnalyzeStencil(t *testing.T) {
	infos, err := analyze(stencilIR())
	if err != nil {
		t.Fatal(err)
	}
	for k, info := range infos {
		if info.class != classDOALL {
			t.Errorf("nest %d: class %v, want DOALL", k, info.class)
		}
	}
	u := infos[0].uses["data"]
	if u == nil || u.minRowOff != -1 || u.maxRowOff != 1 {
		t.Errorf("data read window = %+v, want [-1, 1]", u)
	}
	// Distance vectors: the copy nest writes data[i][j] while the
	// stencil nest's pairs are cross-array only; within the copy nest
	// the only pair is scratch read vs data write — different arrays,
	// so no deps at all.
	if len(infos[1].deps) != 0 {
		t.Errorf("copy nest deps = %v, want none", infos[1].deps)
	}
}

func TestAnalyzeRedBlack(t *testing.T) {
	infos, err := analyze(redBlackIR(true))
	if err != nil {
		t.Fatal(err)
	}
	for k, info := range infos {
		if info.class != classDOALL {
			t.Errorf("guarded sweep %d: class %v, want DOALL", k, info.class)
		}
		refuted := 0
		for _, d := range info.deps {
			if d.refuted {
				refuted++
			}
		}
		if refuted != 4 {
			t.Errorf("sweep %d: %d parity-refuted deps, want 4 (the neighbor reads)", k, refuted)
		}
	}
	// Without the guards the in-place update carries row dependences.
	infos, err = analyze(redBlackIR(false))
	if err != nil {
		t.Fatal(err)
	}
	for k, info := range infos {
		if info.class != classSerial {
			t.Errorf("unguarded sweep %d: class %v, want Serial", k, info.class)
		}
	}
}

func TestAnalyzeReduction(t *testing.T) {
	infos, err := analyze(reductionIR())
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].class != classDOALL {
		t.Errorf("inc nest: %v, want DOALL", infos[0].class)
	}
	if infos[1].class != classReduction {
		t.Errorf("fold nest: %v, want Reduction", infos[1].class)
	}
	if infos, err = analyze(serialIR()); err != nil {
		t.Fatal(err)
	}
	if infos[0].class != classSerial {
		t.Errorf("recurrence: %v, want Serial", infos[0].class)
	}
	if len(infos[0].deps) == 0 || !infos[0].deps[0].carried() || infos[0].deps[0].dist != [2]int{1, 0} {
		t.Errorf("recurrence deps = %+v, want carried distance (1,0)", infos[0].deps)
	}
}

func TestPlanCommunication(t *testing.T) {
	steps, err := planSteps(stencilIR())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps[0].halo) != 1 || steps[0].halo[0] != (haloNeed{Array: "data", width: 1}) {
		t.Errorf("stencil halo = %v, want data width 1", steps[0].halo)
	}
	if len(steps[1].halo) != 0 {
		t.Errorf("copy halo = %v, want none", steps[1].halo)
	}
	steps, err = planSteps(serialIR())
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].parallel {
		t.Fatal("recurrence planned parallel")
	}
	if len(steps[0].bcast) != 1 || steps[0].bcast[0] != "u" {
		t.Errorf("recurrence bcast = %v, want [u]", steps[0].bcast)
	}
	steps, err = planSteps(coeffReadIR())
	if err != nil {
		t.Fatal(err)
	}
	if !steps[0].parallel {
		t.Errorf("coefficient read planned %v, want parallel", steps[0].info.class)
	}
	if !steps[0].fullRead["b"] {
		t.Error("constant-row read of b not marked FullRead")
	}
}

// runBoth lowers a program through both backends at the given node
// count and returns the two checksums.
func runBoth(t *testing.T, p *Program, n, iters, procs int) (spfSum, xhpfSum float64) {
	t.Helper()
	cfg := core.Config{
		Procs: procs, N1: n, Iters: iters, Warmup: 1,
		Costs: model.SP2(), App: model.DefaultAppCosts(),
	}
	rs, err := RunSPF("loopc-test", core.SPFGen, cfg, p)
	if err != nil {
		t.Fatalf("spf backend: %v", err)
	}
	rx, err := RunXHPF("loopc-test", core.XHPFGen, cfg, p)
	if err != nil {
		t.Fatalf("xhpf backend: %v", err)
	}
	return rs.Checksum, rx.Checksum
}

// TestBackendsMatchReference checks that both lowerings compute exactly
// what the sequential interpreter computes, for every nest class:
// DOALL (stencil), guarded DOALL (red-black), reduction, and the
// serial fallback, at 1-4 nodes.
func TestBackendsMatchReference(t *testing.T) {
	const n, iters = 32, 3
	cases := []struct {
		name string
		prog func() *Program
		n    int
	}{
		{"stencil", stencilIR, n},
		{"redblack", func() *Program { return redBlackIR(true) }, n},
		// Rows of a page each: the DSM view must come to span the read
		// and the written rows although they are validated apart.
		{"onesided", oneSidedIR, 1024},
		{"reduction", reductionIR, n},
		{"serial", serialIR, n},
		// Large enough that the coefficient array spans several DSM
		// pages — the whole-region validation regression shows only
		// then (values stay integer-exact).
		{"coeffread", coeffReadIR, 256},
	}
	for _, c := range cases {
		_, _, want := Reference(c.prog(), c.n, iters+1) // warmup + timed
		for procs := 1; procs <= 4; procs++ {
			t.Run(fmt.Sprintf("%s/p%d", c.name, procs), func(t *testing.T) {
				spfSum, xhpfSum := runBoth(t, c.prog(), c.n, iters, procs)
				if spfSum != want {
					t.Errorf("spf-gen checksum %v, want %v", spfSum, want)
				}
				if xhpfSum != want {
					t.Errorf("xhpf-gen checksum %v, want %v", xhpfSum, want)
				}
			})
		}
	}
}

// TestXHPFStorage pins what a message-passing processor allocates per
// array: block and halo where every use is a parallel nest's row-offset
// access, the whole array (halo n) where a serial nest uses it or a
// parallel nest reads it through a non-row index.
func TestXHPFStorage(t *testing.T) {
	const n = 32
	cases := []struct {
		prog *Program
		want []int
	}{
		{stencilIR(), []int{1, 0}},   // data: one-row stencil halo; scratch: own rows only
		{redBlackIR(true), []int{1}}, // in-place sweeps read the neighbors' boundary rows
		{reductionIR(), []int{0}},    // pointwise
		{serialIR(), []int{n}},       // replicated execution needs every row
		{coeffReadIR(), []int{0, n}}, // b is read through a constant row
	}
	for _, c := range cases {
		steps, err := planSteps(c.prog)
		if err != nil {
			t.Fatal(err)
		}
		got := xhpfHalos(c.prog, steps, n)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: halos %v, want %v", c.prog.Name, got, c.want)
		}
	}
}
