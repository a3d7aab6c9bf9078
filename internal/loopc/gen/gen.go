package gen

import (
	"fmt"
	"math/rand"
)

// Generate builds a random valid program from a seed. It is a pure
// function of the seed: the stream of math/rand draws is fixed by the
// code below, no map iteration or wall-clock input enters, and the Go 1
// compatibility promise pins rand.NewSource's sequence — so the
// committed corpus doubles as a regression pin of this function
// (TestCorpusMatchesGenerator).
//
// Every program mixes features that stress different compiler and
// runtime paths: a parallel stencil over the checksummed result array;
// optional red-black pairs (parity-refuted dependences), narrow
// hot-band nests (skewed writer distributions that exercise adaptive
// home migration), serial nests (misaligned writes, transposed or
// carried reads — master-only DSM execution, broadcast + replicated
// execution under message passing), and scale/copy nests; plus up to
// two scalar reductions (sum and max), each owned by exactly one nest.
// Per-nest PointCost annotations vary the compute/communication ratio.
func Generate(seed int64) *ProgramSpec {
	r := rand.New(rand.NewSource(seed))
	ps := &ProgramSpec{
		Seed:  seed,
		Name:  fmt.Sprintf("gen-%d", seed),
		N:     []int{24, 32}[r.Intn(2)],
		Iters: 2 + r.Intn(2),
	}
	names := []string{"a", "b", "c", "d"}
	nw := 1 + r.Intn(2) // arrays some nest writes
	nr := 1 + r.Intn(2) // read-only input arrays
	inits := initNames()
	var writable, readonly []string
	for k := 0; k < nw; k++ {
		writable = append(writable, names[k])
	}
	for k := 0; k < nr; k++ {
		readonly = append(readonly, names[nw+k])
	}
	for _, nm := range append(append([]string{}, writable...), readonly...) {
		ps.Arrays = append(ps.Arrays, ArraySpec{Name: nm, Init: inits[r.Intn(len(inits)-1)]})
	}
	ps.Result = writable[0]

	g := &builder{r: r, ps: ps, writable: writable, readonly: readonly}
	// The first nest is always a parallel stencil writing the result
	// array: every program has distributed work on the checksummed data.
	g.addStencil(writable[0])
	for k, extra := 0, 1+r.Intn(3); k < extra; k++ {
		switch g.r.Intn(10) {
		case 0, 1, 2:
			g.addStencil(g.pick(g.writable))
		case 3, 4:
			g.addRedBlack()
		case 5, 6:
			g.addHotBand()
		case 7, 8:
			g.addSerial()
		default:
			g.addCopyScale()
		}
	}
	// Scalar reductions: each scalar owned by exactly one nest (the
	// oracle precondition Check enforces).
	for s, nscal := 0, r.Intn(3); s < nscal; s++ {
		name := fmt.Sprintf("s%d", s)
		ps.Scalars = append(ps.Scalars, name)
		g.addReduction(name)
	}
	if err := ps.Check(); err != nil {
		// Generate's construction rules are a superset of Check's
		// envelope; a violation here is a generator bug, not bad luck.
		panic(fmt.Sprintf("gen: Generate(%d) violated its own envelope: %v", seed, err))
	}
	return ps
}

// builder accumulates nests under the generation constraints.
type builder struct {
	r                  *rand.Rand
	ps                 *ProgramSpec
	writable, readonly []string
	reduced            []int // nest indexes already owning a reduction
}

func (g *builder) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

// lit returns an exact binary fraction; magnitudes stay ≤ 1.5 so
// value growth over nests × iterations stays far from float32 overflow
// (multiplication is only ever by literals).
func (g *builder) lit() float64 {
	return []float64{0.25, 0.5, 0.75, 1.25, 1.5, 0.0625, -0.5}[g.r.Intn(7)]
}

func (g *builder) cost() int64 {
	return []int64{20, 35, 50, 80, 120}[g.r.Intn(5)]
}

// newNest appends a fresh nest with the given row/col bounds.
func (g *builder) newNest(rlo, rhi, clo, chi ExtentSpec) *NestSpec {
	ns := &NestSpec{
		Name:        fmt.Sprintf("n%d", len(g.ps.Nests)),
		Row:         LoopSpec{Var: "i", Lo: rlo, Hi: rhi},
		Col:         LoopSpec{Var: "j", Lo: clo, Hi: chi},
		PointCostNs: g.cost(),
	}
	g.ps.Nests = append(g.ps.Nests, ns)
	return ns
}

// offRange gives the safe offset interval for an index running over
// [lo, hi) of an n-extent axis, clamped to ±2 (the halo-width cap the
// envelope guarantees at 8 processors).
func offRange(lo, hi, n int) (int, int) {
	min, max := -lo, n-hi
	if min < -2 {
		min = -2
	}
	if max > 2 {
		max = 2
	}
	return min, max
}

func (g *builder) offIn(lo, hi int) int { return lo + g.r.Intn(hi-lo+1) }

// rowRead builds a row-aligned read of array nm within the nest's safe
// offset envelope; inPlace restricts the row offset to 0 (reads of
// arrays the same nest writes must not carry a row dependence).
func (g *builder) rowRead(ns *NestSpec, nm string, inPlace bool) *ExprSpec {
	n := g.ps.N
	roLo, roHi := offRange(ns.Row.Lo.Eval(n), ns.Row.Hi.Eval(n), n)
	coLo, coHi := offRange(ns.Col.Lo.Eval(n), ns.Col.Hi.Eval(n), n)
	ro := 0
	if !inPlace {
		ro = g.offIn(roLo, roHi)
	}
	return &ExprSpec{Ref: &AccessSpec{
		Array: nm,
		Row:   IndexSpec{Var: ns.Row.Var, Off: ro},
		Col:   IndexSpec{Var: ns.Col.Var, Off: g.offIn(coLo, coHi)},
	}}
}

// freeRead builds an arbitrary-shape read of a read-only array:
// straight, transposed, or through a constant index — all legal in
// parallel nests only because the array is never written.
func (g *builder) freeRead(ns *NestSpec) *ExprSpec {
	n := g.ps.N
	nm := g.pick(g.readonly)
	roLo, roHi := offRange(ns.Row.Lo.Eval(n), ns.Row.Hi.Eval(n), n)
	coLo, coHi := offRange(ns.Col.Lo.Eval(n), ns.Col.Hi.Eval(n), n)
	rowIx := IndexSpec{Var: ns.Row.Var, Off: g.offIn(roLo, roHi)}
	colIx := IndexSpec{Var: ns.Col.Var, Off: g.offIn(coLo, coHi)}
	switch g.r.Intn(4) {
	case 0: // transposed: row index runs over the column loop
		rowIx = IndexSpec{Var: ns.Col.Var, Off: g.offIn(coLo, coHi)}
		colIx = IndexSpec{Var: ns.Row.Var, Off: g.offIn(roLo, roHi)}
	case 1: // constant row (a fixed input row read by every iteration)
		rowIx = IndexSpec{Off: g.r.Intn(4)}
	}
	return &ExprSpec{Ref: &AccessSpec{Array: nm, Row: rowIx, Col: colIx}}
}

// combineExpr folds leaves into a random association of + and - nodes
// (multiplication and division only pair with literals, bounding value
// growth and excluding NaN/Inf), optionally scaled by a literal.
func (g *builder) combineExpr(leaves []*ExprSpec) *ExprSpec {
	e := leaves[0]
	for _, leaf := range leaves[1:] {
		op := []string{"+", "-"}[g.r.Intn(2)]
		e = &ExprSpec{Op: op, L: e, R: leaf}
	}
	switch g.r.Intn(4) {
	case 0:
		v := g.lit()
		e = &ExprSpec{Op: "*", L: &ExprSpec{Lit: &v}, R: e}
	case 1:
		v := []float64{2, 4}[g.r.Intn(2)]
		e = &ExprSpec{Op: "/", L: e, R: &ExprSpec{Lit: &v}}
	}
	return e
}

// stencilExpr builds a parallel-safe RHS for a nest whose written
// arrays are writtenHere: reads of those stay on the own row.
func (g *builder) stencilExpr(ns *NestSpec, writtenHere map[string]bool) *ExprSpec {
	var leaves []*ExprSpec
	for k, nleaf := 0, 2+g.r.Intn(3); k < nleaf; k++ {
		switch g.r.Intn(5) {
		case 0:
			leaves = append(leaves, g.freeRead(ns))
		case 1:
			v := g.lit()
			leaves = append(leaves, &ExprSpec{Lit: &v})
		default:
			nm := g.pick(g.writable)
			leaves = append(leaves, g.rowRead(ns, nm, writtenHere[nm]))
		}
	}
	// At least one array read keeps the nest data-dependent.
	if leaves[0].Ref == nil && len(leaves) == 1 {
		leaves = append(leaves, g.freeRead(ns))
	}
	return g.combineExpr(leaves)
}

// addStencil appends a parallel stencil nest writing target (and, with
// some probability, a second written array — an imperfect nest).
func (g *builder) addStencil(target string) {
	ns := g.newNest(ExtentSpec{0, 2}, ExtentSpec{1, -2}, ExtentSpec{0, 2}, ExtentSpec{1, -2})
	writtenHere := map[string]bool{target: true}
	second := ""
	if len(g.writable) > 1 && g.r.Intn(5) < 2 {
		second = g.pick(g.writable)
		writtenHere[second] = true
	}
	ns.Stmts = append(ns.Stmts, StmtSpec{
		LHS: &AccessSpec{Array: target, Row: IndexSpec{Var: "i"}, Col: IndexSpec{Var: "j"}},
		RHS: g.stencilExpr(ns, writtenHere),
	})
	if second != "" && second != target {
		ns.Stmts = append(ns.Stmts, StmtSpec{
			LHS: &AccessSpec{Array: second, Row: IndexSpec{Var: "i"}, Col: IndexSpec{Var: "j"}},
			RHS: g.stencilExpr(ns, writtenHere),
		})
	}
}

// addRedBlack appends a parity-guarded pair of in-place nests whose
// neighbor reads are refuted by the guard (the red-black idiom the
// analyzer must see through).
func (g *builder) addRedBlack() {
	t := g.pick(g.writable)
	for color := 0; color < 2; color++ {
		rem := color
		ns := g.newNest(ExtentSpec{0, 2}, ExtentSpec{1, -2}, ExtentSpec{0, 2}, ExtentSpec{1, -2})
		ns.Parity = &rem
		// Odd-parity neighbor offsets: (row+col) parity differs from the
		// write's, so the guard refutes every dependence.
		nbrs := [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
		var leaves []*ExprSpec
		for _, k := range g.r.Perm(4)[:2+g.r.Intn(3)] {
			d := nbrs[k]
			leaves = append(leaves, &ExprSpec{Ref: &AccessSpec{
				Array: t,
				Row:   IndexSpec{Var: "i", Off: d[0]},
				Col:   IndexSpec{Var: "j", Off: d[1]},
			}})
		}
		if g.r.Intn(2) == 0 {
			leaves = append(leaves, g.freeRead(ns))
		}
		ns.Stmts = append(ns.Stmts, StmtSpec{
			LHS: &AccessSpec{Array: t, Row: IndexSpec{Var: "i"}, Col: IndexSpec{Var: "j"}},
			RHS: g.combineExpr(leaves),
		})
	}
}

// addHotBand appends a parallel nest over a narrow constant row band:
// all its writes land on the low-row owners, the skewed pattern that
// separates adaptive home migration from static placement.
func (g *builder) addHotBand() {
	t := g.pick(g.writable)
	band := 3 + g.r.Intn(3)
	ns := g.newNest(ExtentSpec{0, 1}, ExtentSpec{0, 1 + band}, ExtentSpec{0, 1}, ExtentSpec{1, -1})
	writtenHere := map[string]bool{t: true}
	ns.Stmts = append(ns.Stmts, StmtSpec{
		LHS: &AccessSpec{Array: t, Row: IndexSpec{Var: "i"}, Col: IndexSpec{Var: "j"}},
		RHS: g.stencilExpr(ns, writtenHere),
	})
}

// addSerial appends a nest the analyzer must reject for parallel
// execution: a misaligned write, a transposed read of a written array,
// or a row-carried in-place dependence.
func (g *builder) addSerial() {
	t := g.pick(g.writable)
	ns := g.newNest(ExtentSpec{0, 2}, ExtentSpec{1, -2}, ExtentSpec{0, 2}, ExtentSpec{1, -2})
	writtenHere := map[string]bool{t: true}
	lhs := &AccessSpec{Array: t, Row: IndexSpec{Var: "i"}, Col: IndexSpec{Var: "j"}}
	var rhs *ExprSpec
	switch g.r.Intn(3) {
	case 0: // write not aligned with the row loop
		lhs.Row.Off = []int{-1, 1}[g.r.Intn(2)]
		rhs = g.stencilExpr(ns, writtenHere)
	case 1: // transposed read of a written array
		u := g.pick(g.writable)
		rhs = g.combineExpr([]*ExprSpec{
			{Ref: &AccessSpec{Array: u, Row: IndexSpec{Var: "j"}, Col: IndexSpec{Var: "i"}}},
			g.rowRead(ns, t, true),
		})
	default: // row-carried in-place dependence
		rhs = g.combineExpr([]*ExprSpec{
			{Ref: &AccessSpec{Array: t, Row: IndexSpec{Var: "i", Off: -1}, Col: IndexSpec{Var: "j"}}},
			g.freeRead(ns),
		})
	}
	ns.Stmts = append(ns.Stmts, StmtSpec{LHS: lhs, RHS: rhs})
}

// addCopyScale appends a simple parallel copy/scale nest feeding the
// target from another array.
func (g *builder) addCopyScale() {
	t := g.pick(g.writable)
	ns := g.newNest(ExtentSpec{0, 2}, ExtentSpec{1, -2}, ExtentSpec{0, 2}, ExtentSpec{1, -2})
	src := g.freeRead(ns)
	if len(g.writable) > 1 {
		for _, u := range g.writable {
			if u != t {
				src = g.rowRead(ns, u, false)
				break
			}
		}
	}
	v := g.lit()
	ns.Stmts = append(ns.Stmts, StmtSpec{
		LHS: &AccessSpec{Array: t, Row: IndexSpec{Var: "i"}, Col: IndexSpec{Var: "j"}},
		RHS: &ExprSpec{Op: "*", L: &ExprSpec{Lit: &v}, R: src},
	})
}

// addReduction appends one scalar-reduction statement to a nest that
// does not own one yet (each scalar is reduced in exactly one nest —
// the condition making the per-backend combining trees well-defined).
func (g *builder) addReduction(scalar string) {
	var candidates []int
	for k := range g.ps.Nests {
		owned := false
		for _, used := range g.reduced {
			if used == k {
				owned = true
			}
		}
		if !owned {
			candidates = append(candidates, k)
		}
	}
	if len(candidates) == 0 {
		// Every nest owns a reduction already; grow a dedicated one.
		g.addCopyScale()
		candidates = []int{len(g.ps.Nests) - 1}
	}
	k := candidates[g.r.Intn(len(candidates))]
	ns := g.ps.Nests[k]
	g.reduced = append(g.reduced, k)

	var leaves []*ExprSpec
	for _, ss := range ns.Stmts {
		if ss.LHS != nil {
			// Reads of arrays this nest writes stay on the own row.
			leaves = append(leaves, g.rowRead(ns, ss.LHS.Array, true))
			break
		}
	}
	if len(leaves) == 0 {
		leaves = append(leaves, g.rowRead(ns, g.pick(g.writable), false))
	}
	if g.r.Intn(2) == 0 {
		leaves = append(leaves, g.freeRead(ns))
	}
	op := []string{"sum", "sum", "max"}[g.r.Intn(3)]
	ns.Stmts = append(ns.Stmts, StmtSpec{
		RHS:        g.combineExpr(leaves),
		ReduceInto: scalar,
		ReduceOp:   op,
	})
}
