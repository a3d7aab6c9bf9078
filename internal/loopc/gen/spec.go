// Package gen is a seeded, fully deterministic generator of valid
// loopc IR programs — the synthetic-workload half of the differential
// compiler-fuzzing rig (internal/loopc/difftest is the checking half).
//
// A ProgramSpec is pure data: it serializes to JSON (the committed
// corpus under internal/loopc/testdata/corpus), rebuilds the exact
// loopc.Program via Build (array initializers come from a fixed named
// registry, so a spec read back from disk reproduces the run
// bit-for-bit), and wraps into a core.App named "gen-<seed>" whose
// versions are {seq, spf-gen, xhpf-gen}. Generate(seed) is a pure
// function of the seed: same seed, same program, forever — the corpus
// test pins that contract, and any intentional generator change must
// regenerate the committed corpus and golden tables.
//
// Check enforces the validity envelope Generate promises and mutation
// (fuzzing, minimization) must preserve: all accesses in bounds for the
// program's n, every scalar reduced by exactly one statement of exactly
// one nest (the condition under which the difftest oracle's combining
// trees are exact), and row offsets no wider than the smallest XHPF
// block at 8 processors (nearest-neighbor halo exchange cannot reach
// further).
package gen

import (
	"encoding/json"
	"fmt"

	"repro/internal/loopc"
	"repro/internal/sim"
)

// warmup is the untimed leading iteration count every generated
// program's Config uses (the paper's convention). Total program
// evolution is warmup+Iters iterations; oracle checksums must match.
const warmup = 1

// maxProcs is the largest processor count the validity envelope
// guarantees: blocks at maxProcs stay at least as wide as any read's
// row offset, so nearest-neighbor halo exchange suffices.
const maxProcs = 8

// ExtentSpec mirrors loopc.Extent: NCoeff*n + Const.
type ExtentSpec struct {
	NCoeff int `json:"ncoeff"`
	Const  int `json:"const"`
}

// Eval resolves the extent for a concrete n.
func (e ExtentSpec) Eval(n int) int { return e.NCoeff*n + e.Const }

// LoopSpec mirrors loopc.Loop: a loop variable and [Lo, Hi) bounds.
type LoopSpec struct {
	Var string     `json:"var"`
	Lo  ExtentSpec `json:"lo"`
	Hi  ExtentSpec `json:"hi"`
}

// IndexSpec mirrors loopc.Index: Var+Off, or a constant when Var is "".
type IndexSpec struct {
	Var string `json:"var,omitempty"`
	Off int    `json:"off"`
}

// AccessSpec mirrors loopc.Access.
type AccessSpec struct {
	Array string    `json:"array"`
	Row   IndexSpec `json:"row"`
	Col   IndexSpec `json:"col"`
}

// ExprSpec is a serializable loopc.Expr node: exactly one of Lit, Ref,
// or Op (with L and R) is set. Lit values are exact binary fractions,
// so the float64 JSON round trip is bitwise lossless in float32.
type ExprSpec struct {
	Lit *float64    `json:"lit,omitempty"`
	Ref *AccessSpec `json:"ref,omitempty"`
	Op  string      `json:"op,omitempty"` // "+", "-", "*", "/"
	L   *ExprSpec   `json:"l,omitempty"`
	R   *ExprSpec   `json:"r,omitempty"`
}

// walk visits every array access in the expression.
func (e *ExprSpec) walk(f func(*AccessSpec)) {
	if e == nil {
		return
	}
	if e.Ref != nil {
		f(e.Ref)
	}
	e.L.walk(f)
	e.R.walk(f)
}

// StmtSpec mirrors loopc.Stmt: an array assignment (LHS set) or a
// scalar reduction (ReduceInto/ReduceOp set).
type StmtSpec struct {
	LHS        *AccessSpec `json:"lhs,omitempty"`
	RHS        *ExprSpec   `json:"rhs"`
	ReduceInto string      `json:"reduce_into,omitempty"`
	ReduceOp   string      `json:"reduce_op,omitempty"` // "sum" or "max"
}

// NestSpec mirrors loopc.Nest.
type NestSpec struct {
	Name        string     `json:"name"`
	Row         LoopSpec   `json:"row"`
	Col         LoopSpec   `json:"col"`
	Parity      *int       `json:"parity,omitempty"`
	Stmts       []StmtSpec `json:"stmts"`
	PointCostNs int64      `json:"point_cost_ns"`
}

// ArraySpec declares an n×n array with a named initializer from the
// fixed registry (see initNames); "" means zero-filled.
type ArraySpec struct {
	Name string `json:"name"`
	Init string `json:"init,omitempty"`
}

// ProgramSpec is a complete generated program as pure data.
type ProgramSpec struct {
	Seed    int64       `json:"seed"`
	Name    string      `json:"name"`
	N       int         `json:"n"`
	Iters   int         `json:"iters"`
	Arrays  []ArraySpec `json:"arrays"`
	Scalars []string    `json:"scalars,omitempty"`
	Nests   []*NestSpec `json:"nests"`
	Result  string      `json:"result"`
}

// initFns is the fixed registry of named array initializers. Every
// value is an exact binary fraction, so products and halvings stay
// exactly representable and no backend can differ by rounding of the
// initial state. The registry is append-only: removing or changing an
// entry invalidates the committed corpus.
var initFns = map[string]func(i, j, n int) float32{
	"zero": func(i, j, n int) float32 { return 0 },
	"ones": func(i, j, n int) float32 { return 1 },
	"edges": func(i, j, n int) float32 {
		if i == 0 || j == 0 || i == n-1 || j == n-1 {
			return 1
		}
		return 0
	},
	"coords": func(i, j, n int) float32 { return float32(i-j) * 0.03125 },
	"checker": func(i, j, n int) float32 {
		if (i+j)%2 == 0 {
			return 0.5
		}
		return -0.25
	},
	"ramp": func(i, j, n int) float32 { return float32(i)*0.015625 + float32(j)*0.00390625 },
	"hotrow": func(i, j, n int) float32 {
		if i <= 2 {
			return 1.5
		}
		return 0.0625
	},
}

// initNames lists the initializer registry in the fixed generation
// order (not map order — generation must be deterministic).
func initNames() []string {
	return []string{"edges", "coords", "checker", "ramp", "hotrow", "ones", "zero"}
}

// Build converts the spec into a loopc.Program. The result is
// independent of when or where the spec was built: initializers resolve
// through the fixed registry and everything else is data.
func (ps *ProgramSpec) Build() (*loopc.Program, error) {
	p := &loopc.Program{Name: ps.Name, Result: ps.Result}
	p.Scalars = append(p.Scalars, ps.Scalars...)
	for _, a := range ps.Arrays {
		fn, ok := initFns[a.Init]
		if a.Init == "" {
			fn, ok = nil, true
		}
		if !ok {
			return nil, fmt.Errorf("gen: %s: unknown initializer %q for array %q", ps.Name, a.Init, a.Name)
		}
		p.Arrays = append(p.Arrays, loopc.ArrayDecl{Name: a.Name, Init: fn})
	}
	for ni, ns := range ps.Nests {
		nst := &loopc.Nest{
			Name:      ns.Name,
			Row:       loopc.Loop{Var: ns.Row.Var, Lo: loopc.Ext(ns.Row.Lo.NCoeff, ns.Row.Lo.Const), Hi: loopc.Ext(ns.Row.Hi.NCoeff, ns.Row.Hi.Const)},
			Col:       loopc.Loop{Var: ns.Col.Var, Lo: loopc.Ext(ns.Col.Lo.NCoeff, ns.Col.Lo.Const), Hi: loopc.Ext(ns.Col.Hi.NCoeff, ns.Col.Hi.Const)},
			PointCost: sim.Time(ns.PointCostNs),
		}
		if ns.Parity != nil {
			nst.Guard = &loopc.Parity{Rem: *ns.Parity}
		}
		for si, ss := range ns.Stmts {
			st := &loopc.Stmt{}
			switch {
			case ss.ReduceInto != "":
				st.ReduceInto = ss.ReduceInto
				switch ss.ReduceOp {
				case "sum":
					st.Op = loopc.ReduceSum
				case "max":
					st.Op = loopc.ReduceMax
				default:
					return nil, fmt.Errorf("gen: %s/%s: stmt %d: unknown reduce op %q", ps.Name, ns.Name, si, ss.ReduceOp)
				}
			case ss.LHS != nil:
				st.LHS = buildAccess(*ss.LHS)
			default:
				return nil, fmt.Errorf("gen: %s/%s: stmt %d: needs an LHS or a reduction target", ps.Name, ns.Name, si)
			}
			rhs, err := buildExpr(ss.RHS)
			if err != nil {
				return nil, fmt.Errorf("gen: %s/%s: stmt %d: %v", ps.Name, ns.Name, si, err)
			}
			st.RHS = rhs
			nst.Stmts = append(nst.Stmts, st)
		}
		if len(nst.Stmts) == 0 {
			return nil, fmt.Errorf("gen: %s: nest %d has no statements", ps.Name, ni)
		}
		p.Nests = append(p.Nests, nst)
	}
	return p, nil
}

func buildAccess(a AccessSpec) loopc.Access {
	return loopc.Access{
		Array: a.Array,
		Row:   loopc.Index{Var: a.Row.Var, Off: a.Row.Off},
		Col:   loopc.Index{Var: a.Col.Var, Off: a.Col.Off},
	}
}

func buildExpr(e *ExprSpec) (loopc.Expr, error) {
	if e == nil {
		return nil, fmt.Errorf("missing expression node")
	}
	set := 0
	if e.Lit != nil {
		set++
	}
	if e.Ref != nil {
		set++
	}
	if e.Op != "" {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("expression node must be exactly one of lit/ref/op")
	}
	switch {
	case e.Lit != nil:
		return loopc.Lit(float32(*e.Lit)), nil
	case e.Ref != nil:
		return loopc.Ref(buildAccess(*e.Ref)), nil
	}
	l, err := buildExpr(e.L)
	if err != nil {
		return nil, err
	}
	r, err := buildExpr(e.R)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "+":
		return loopc.Add(l, r), nil
	case "-":
		return loopc.Sub(l, r), nil
	case "*":
		return loopc.Mul(l, r), nil
	case "/":
		return loopc.Div(l, r), nil
	}
	return nil, fmt.Errorf("unknown operator %q", e.Op)
}

// JSON renders the spec in the committed corpus encoding (indented,
// fixed field order — stable bytes for a given spec).
func (ps *ProgramSpec) JSON() []byte {
	b, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		panic(err) // specs are plain data; marshal cannot fail
	}
	return append(b, '\n')
}

// Parse decodes a corpus entry.
func Parse(data []byte) (*ProgramSpec, error) {
	ps := &ProgramSpec{}
	if err := json.Unmarshal(data, ps); err != nil {
		return nil, fmt.Errorf("gen: bad program spec: %v", err)
	}
	return ps, nil
}

// MustParse decodes a spec literal, panicking on malformed input — the
// committable-repro form the minimizer emits (a Go source file embeds
// the JSON in a raw string).
func MustParse(s string) *ProgramSpec {
	ps, err := Parse([]byte(s))
	if err != nil {
		panic(err)
	}
	return ps
}

// Clone deep-copies a spec (mutation and minimization never alias).
func (ps *ProgramSpec) Clone() *ProgramSpec {
	out, err := Parse(ps.JSON())
	if err != nil {
		panic(err)
	}
	return out
}

// GoLiteral renders the spec as a committable Go expression (the form a
// minimized repro is reported in).
func GoLiteral(ps *ProgramSpec) string {
	return "gen.MustParse(`\n" + string(ps.JSON()) + "`)"
}

// minBlockRows is the smallest nonempty BLOCK row count any processor
// owns at any count up to maxProcs (the xhpf.BlockOf geometry).
func minBlockRows(n int) int {
	min := n
	for procs := 1; procs <= maxProcs; procs++ {
		chunk := (n + procs - 1) / procs
		for q := 0; q < procs; q++ {
			lo, hi := q*chunk, (q+1)*chunk
			if lo > n {
				lo = n
			}
			if hi > n {
				hi = n
			}
			if hi > lo && hi-lo < min {
				min = hi - lo
			}
		}
	}
	return min
}

// Check enforces the validity envelope: structural validity of the
// built program, all accesses in bounds for the spec's n at every
// executed point, every scalar reduced by exactly one statement (the
// oracle's precondition), and read row offsets within the smallest
// block at maxProcs processors (the reach of nearest-neighbor halo
// exchange). Generate always returns a spec that passes; mutated or
// minimized specs must be re-checked and rejected on failure.
func (ps *ProgramSpec) Check() error {
	if ps.N < 8 || ps.N > 64 {
		return fmt.Errorf("gen: %s: n=%d outside [8,64]", ps.Name, ps.N)
	}
	if ps.Iters < 1 || ps.Iters > 4 {
		return fmt.Errorf("gen: %s: iters=%d outside [1,4]", ps.Name, ps.Iters)
	}
	if len(ps.Nests) == 0 || len(ps.Nests) > 8 {
		return fmt.Errorf("gen: %s: %d nests outside [1,8]", ps.Name, len(ps.Nests))
	}
	p, err := ps.Build()
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}

	reduceCount := map[string]int{}
	maxRowOff := 0
	for ni, ns := range ps.Nests {
		if len(ns.Stmts) > 6 {
			return fmt.Errorf("gen: %s/%s: %d statements > 6", ps.Name, ns.Name, len(ns.Stmts))
		}
		if ns.PointCostNs < 0 || ns.PointCostNs > 1000 {
			return fmt.Errorf("gen: %s/%s: point cost %dns outside [0,1000]", ps.Name, ns.Name, ns.PointCostNs)
		}
		rlo, rhi := ns.Row.Lo.Eval(ps.N), ns.Row.Hi.Eval(ps.N)
		clo, chi := ns.Col.Lo.Eval(ps.N), ns.Col.Hi.Eval(ps.N)
		if rlo < 0 || rhi > ps.N || rlo >= rhi {
			return fmt.Errorf("gen: %s/%s: row range [%d,%d) invalid for n=%d", ps.Name, ns.Name, rlo, rhi, ps.N)
		}
		if clo < 0 || chi > ps.N || clo >= chi {
			return fmt.Errorf("gen: %s/%s: col range [%d,%d) invalid for n=%d", ps.Name, ns.Name, clo, chi, ps.N)
		}
		checkAccess := func(si int, a *AccessSpec) error {
			for axis, ix := range []IndexSpec{a.Row, a.Col} {
				lo, hi := 0, 0
				switch ix.Var {
				case ns.Row.Var:
					lo, hi = rlo+ix.Off, rhi-1+ix.Off
				case ns.Col.Var:
					lo, hi = clo+ix.Off, chi-1+ix.Off
				case "":
					lo, hi = ix.Off, ix.Off
				default:
					return fmt.Errorf("gen: %s/%s: stmt %d: index var %q not a loop var", ps.Name, ns.Name, si, ix.Var)
				}
				if lo < 0 || hi >= ps.N {
					return fmt.Errorf("gen: %s/%s: stmt %d: access to %s axis %d spans [%d,%d] outside [0,%d)",
						ps.Name, ns.Name, si, a.Array, axis, lo, hi, ps.N)
				}
			}
			if ix := a.Row; ix.Var == ns.Row.Var {
				off := ix.Off
				if off < 0 {
					off = -off
				}
				if off > maxRowOff {
					maxRowOff = off
				}
			}
			return nil
		}
		for si := range ns.Stmts {
			ss := &ns.Stmts[si]
			if ss.ReduceInto != "" {
				reduceCount[ss.ReduceInto]++
			} else if ss.LHS != nil {
				if err := checkAccess(si, ss.LHS); err != nil {
					return err
				}
			}
			var werr error
			ss.RHS.walk(func(a *AccessSpec) {
				if werr == nil {
					werr = checkAccess(si, a)
				}
			})
			if werr != nil {
				return werr
			}
		}
		_ = ni
	}
	for _, s := range ps.Scalars {
		if reduceCount[s] != 1 {
			return fmt.Errorf("gen: %s: scalar %q reduced by %d statements, want exactly 1 (oracle precondition)",
				ps.Name, s, reduceCount[s])
		}
	}
	if mb := minBlockRows(ps.N); maxRowOff > mb {
		return fmt.Errorf("gen: %s: read row offset %d exceeds the smallest block (%d rows) at %d procs",
			ps.Name, maxRowOff, mb, maxProcs)
	}
	return nil
}
