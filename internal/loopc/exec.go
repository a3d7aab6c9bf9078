package loopc

import (
	"math"

	"repro/internal/apps/apputil"
)

// frame is the execution context a compiled nest runs against: the
// current point, the size parameter, the array storage (whatever backs
// it — views of tmk regions on the DSM, sequential copies, a processor's
// block and halo under message passing) and the scalar accumulators.
type frame struct {
	n    int
	i, j int
	arr  [][]float32
	scal []float64
}

// valueFn evaluates a float32 expression at the frame's current point.
type valueFn func(fr *frame) float32

// indexFn resolves a flattened element index at the current point.
type indexFn func(fr *frame) int

// compiler carries the name resolution for one nest. Programs index
// absolutely (row*n + col); off[slot] is the absolute index of the
// first element a slot's backing holds — zero for whole arrays, the
// first stored row's under message passing, the first row's of a DSM
// slice's view — and is folded into every compiled index.
type compiler struct {
	rowVar, colVar string
	arrays         map[string]int
	scalars        map[string]int
	off            []int
}

func (c *compiler) index(a Access) indexFn {
	row := c.axis(a.Row)
	col := c.axis(a.Col)
	off := c.off[c.arrays[a.Array]]
	return func(fr *frame) int { return row(fr)*fr.n + col(fr) - off }
}

func (c *compiler) axis(ix Index) func(fr *frame) int {
	off := ix.Off
	switch ix.Var {
	case c.rowVar:
		return func(fr *frame) int { return fr.i + off }
	case c.colVar:
		return func(fr *frame) int { return fr.j + off }
	}
	return func(fr *frame) int { return off }
}

func (c *compiler) expr(e Expr) valueFn {
	switch e := e.(type) {
	case Lit:
		v := float32(e)
		return func(*frame) float32 { return v }
	case Ref:
		slot := c.arrays[e.Array]
		idx := c.index(Access(e))
		return func(fr *frame) float32 { return fr.arr[slot][idx(fr)] }
	case *bin:
		l, r := c.expr(e.L), c.expr(e.R)
		switch e.Op {
		case '+':
			return func(fr *frame) float32 { return l(fr) + r(fr) }
		case '-':
			return func(fr *frame) float32 { return l(fr) - r(fr) }
		case '*':
			return func(fr *frame) float32 { return l(fr) * r(fr) }
		case '/':
			return func(fr *frame) float32 { return l(fr) / r(fr) }
		}
	}
	panic("loopc: unknown expression node")
}

// execStmt is one compiled statement.
type execStmt struct {
	// Array assignment: store RHS at LHS.
	lhsSlot int
	lhsIdx  indexFn
	// Reduction: accumulate RHS into scalar redSlot with op.
	redSlot int // -1 for array assignments
	op      ReduceOp
	rhs     valueFn
}

// execNest is a nest compiled to closures.
type execNest struct {
	nst   *Nest
	stmts []execStmt
}

// compileNest compiles a nest against a program's name space. off
// gives, per array slot, the absolute index of the backing's first
// element; nil means whole arrays.
func compileNest(p *Program, nst *Nest, off []int) *execNest {
	if off == nil {
		off = make([]int, len(p.Arrays))
	}
	c := &compiler{
		rowVar:  nst.Row.Var,
		colVar:  nst.Col.Var,
		arrays:  p.arrayIndex(),
		scalars: p.scalarIndex(),
		off:     off,
	}
	en := &execNest{nst: nst}
	for _, s := range nst.Stmts {
		es := execStmt{redSlot: -1, rhs: c.expr(s.RHS)}
		if s.ReduceInto != "" {
			es.redSlot = c.scalars[s.ReduceInto]
			es.op = s.Op
		} else {
			es.lhsSlot = c.arrays[s.LHS.Array]
			es.lhsIdx = c.index(s.LHS)
		}
		en.stmts = append(en.stmts, es)
	}
	return en
}

// runRows executes the nest body for rows [rlo, rhi) of its iteration
// space, in ascending (row, col) order, and returns the number of
// points executed (guarded points that were skipped are not counted) —
// the backends charge PointCost per executed point, exactly as the
// hand-coded versions do.
func (en *execNest) runRows(fr *frame, rlo, rhi int) int {
	jlo := en.nst.Col.Lo.Eval(fr.n)
	jhi := en.nst.Col.Hi.Eval(fr.n)
	rem := -1
	if en.nst.Guard != nil {
		rem = mod2(en.nst.Guard.Rem)
	}
	count := 0
	for i := rlo; i < rhi; i++ {
		fr.i = i
		for j := jlo; j < jhi; j++ {
			if rem >= 0 && (i+j)&1 != rem {
				continue
			}
			fr.j = j
			for k := range en.stmts {
				es := &en.stmts[k]
				v := es.rhs(fr)
				if es.redSlot < 0 {
					fr.arr[es.lhsSlot][es.lhsIdx(fr)] = v
				} else if es.op == ReduceSum {
					fr.scal[es.redSlot] += float64(v)
				} else if float64(v) > fr.scal[es.redSlot] {
					fr.scal[es.redSlot] = float64(v)
				}
			}
			count++
		}
	}
	return count
}

// identity returns the reduction identity for a scalar, derived from
// the first statement that reduces into it (Validate guarantees all
// statements use one op per scalar).
func identity(p *Program, slot int) float64 {
	name := p.Scalars[slot]
	for _, nst := range p.Nests {
		for _, s := range nst.Stmts {
			if s.ReduceInto == name && s.Op == ReduceMax {
				return math.Inf(-1)
			}
		}
	}
	return 0
}

// scalarOp returns the combining operator of a scalar.
func scalarOp(p *Program, slot int) ReduceOp {
	name := p.Scalars[slot]
	for _, nst := range p.Nests {
		for _, s := range nst.Stmts {
			if s.ReduceInto == name {
				return s.Op
			}
		}
	}
	return ReduceSum
}

// combine applies a reduction operator in float64.
func combine(op ReduceOp, a, b float64) float64 {
	if op == ReduceMax {
		return math.Max(a, b)
	}
	return a + b
}

// resetScalars sets every scalar to its identity (start of iteration).
func resetScalars(p *Program, scal []float64) {
	for k := range scal {
		scal[k] = identity(p, k)
	}
}

// checksum is the shared checksum convention of compiled programs: the
// float64 index-order sum of the result array (whole, or as the row
// blocks of a gather) plus the final scalar values in declaration
// order. Programs without scalars reduce to apputil.Sum64 of the result
// array — the same convention every hand-coded version uses, which is
// what makes hand-vs-generated checksums directly comparable.
func checksum(scal []float64, result ...[]float32) float64 {
	s := apputil.Sum64(result...)
	for _, v := range scal {
		s += v
	}
	return s
}

// Reference executes the program sequentially — single copies of the
// arrays, no distribution — for iters iterations at size n. It is the
// semantic ground truth the backend tests compare against.
func Reference(p *Program, n, iters int) (arrays [][]float32, scalars []float64, sum float64) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	arrays = newArrays(p, n)
	scalars = make([]float64, len(p.Scalars))
	fr := &frame{n: n, arr: arrays, scal: scalars}
	ens := make([]*execNest, len(p.Nests))
	for k, nst := range p.Nests {
		ens[k] = compileNest(p, nst, nil)
	}
	for it := 0; it < iters; it++ {
		resetScalars(p, scalars)
		for _, en := range ens {
			en.runRows(fr, en.nst.Row.Lo.Eval(n), en.nst.Row.Hi.Eval(n))
		}
	}
	res := arrays[p.arrayIndex()[p.Result]]
	return arrays, scalars, checksum(scalars, res)
}

// newArrays allocates whole, initialized copies of a program's arrays.
func newArrays(p *Program, n int) [][]float32 {
	arrays := make([][]float32, len(p.Arrays))
	for k, a := range p.Arrays {
		arrays[k] = make([]float32, n*n)
		if a.Init != nil {
			fillInit(arrays[k], a.Init, n, 0, n)
		}
	}
	return arrays
}

// fillInit fills rows [rlo,rhi) of an n×n array from an element
// initializer; dst begins at row rlo.
func fillInit(dst []float32, init func(i, j, n int) float32, n, rlo, rhi int) {
	for i := rlo; i < rhi; i++ {
		row := dst[(i-rlo)*n:][:n]
		for j := range row {
			row[j] = init(i, j, n)
		}
	}
}

// clampRow clamps a row index to [0, n].
func clampRow(r, n int) int {
	if r < 0 {
		return 0
	}
	if r > n {
		return n
	}
	return r
}
