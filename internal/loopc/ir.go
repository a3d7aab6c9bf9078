// Package loopc is a mini parallelizing-compiler front end: the piece
// the paper presumes but the repo so far only reproduced the *output*
// of. Applications describe a kernel once, as a typed loop-nest IR over
// shared 2-D arrays; the compiler analyzes dependences (distance
// vectors for coefficient-1 affine accesses, parity separation for
// red-black sweeps, recognized scalar reductions), classifies each nest
// as DOALL, reduction, or serial; chooses BLOCK row partitions and the
// communication they imply (halo-exchange widths from dependence
// distances, broadcasts for replicated reads in serial nests); and
// lowers the result onto two runtimes, mirroring the paper's two
// compilers:
//
//   - the SPF fork-join DSM runtime (spf.ParallelDo over tmk regions),
//     registered as application version "spf-gen";
//   - the XHPF message-passing runtime (owner-computes SPMD with
//     xhpf.ExchangeHalo / BroadcastPartition / AllReduce and LoopSync
//     at parallel-loop boundaries), registered as "xhpf-gen".
//
// Compiled versions are required to be bit-identical to their
// hand-coded counterparts: the lowering emits exactly the access
// ranges, schedules and float32 expression shapes a careful hand coder
// writes, so checksums match to the last bit under every coherence
// protocol and node count (asserted by TestCompiledEquivalence in
// internal/harness).
//
// Supported IR shape (restrictions are diagnosed, not silently
// miscompiled): rectangular 2-deep nests (row, col) over n×n float32
// arrays; index expressions are loopvar+constant in the matching
// dimension; an optional (row+col) parity guard per nest; multiple
// statements per innermost body (imperfect nests); scalar sum/max
// reductions. Anything the analyzer cannot prove independent falls back
// to a serial nest, which still lowers correctly (master-only execution
// on the DSM, replicated execution after a broadcast under message
// passing).
package loopc

import (
	"fmt"

	"repro/internal/sim"
)

// Extent is an affine bound in the size parameter n: NCoeff*n + Const.
type Extent struct {
	NCoeff int
	Const  int
}

// Eval resolves the extent for a concrete n.
func (e Extent) Eval(n int) int { return e.NCoeff*n + e.Const }

// Ext is shorthand for an Extent literal.
func Ext(ncoeff, c int) Extent { return Extent{NCoeff: ncoeff, Const: c} }

// Loop is one loop of a nest: var name and half-open bounds [Lo, Hi).
type Loop struct {
	Var    string
	Lo, Hi Extent
}

// Index is a coefficient-1 affine index expression: Var + Off. An empty
// Var is a constant index.
type Index struct {
	Var string
	Off int
}

// Access names one element of a 2-D array: Array[Row][Col].
type Access struct {
	Array    string
	Row, Col Index
}

// At builds the common access A[rowVar+ro][colVar+co].
func At(array, rowVar string, ro int, colVar string, co int) Access {
	return Access{Array: array, Row: Index{Var: rowVar, Off: ro}, Col: Index{Var: colVar, Off: co}}
}

// Expr is a float32 expression tree. Evaluation order is the tree
// shape, so an IR author controls floating-point association exactly —
// that is what makes compiled code bit-identical to hand-written code.
type Expr interface {
	walk(f func(Access))
}

// Lit is a float32 constant.
type Lit float32

// Ref reads an array element.
type Ref Access

// bin is a binary operation; L is evaluated first.
type bin struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

func (Lit) walk(func(Access))      {}
func (r Ref) walk(f func(Access))  { f(Access(r)) }
func (b *bin) walk(f func(Access)) { b.L.walk(f); b.R.walk(f) }

// Add, Sub, Mul and Div build binary nodes (left operand first).
func Add(l, r Expr) Expr { return &bin{Op: '+', L: l, R: r} }
func Sub(l, r Expr) Expr { return &bin{Op: '-', L: l, R: r} }
func Mul(l, r Expr) Expr { return &bin{Op: '*', L: l, R: r} }
func Div(l, r Expr) Expr { return &bin{Op: '/', L: l, R: r} }

// ReduceOp is a recognized reduction operator.
type ReduceOp byte

const (
	// ReduceSum accumulates by addition (identity 0).
	ReduceSum ReduceOp = '+'
	// ReduceMax keeps the maximum (identity -Inf).
	ReduceMax ReduceOp = 'M'
)

// Stmt is one innermost-body statement. With ReduceInto empty it is the
// array assignment LHS = RHS; otherwise it accumulates RHS into the
// named scalar with Op and LHS is ignored.
type Stmt struct {
	LHS        Access
	RHS        Expr
	ReduceInto string
	Op         ReduceOp
}

// Parity restricts a nest to the points where (row+col) mod 2 == Rem —
// the red-black iteration-space split.
type Parity struct {
	Rem int
}

// Nest is a rectangular 2-deep loop nest executed once per program
// iteration. Stmts run in order at each (row, col) point that passes
// the guard. PointCost is the virtual CPU time charged per executed
// point (the kernel-cost annotation; hand-coded versions charge the
// same way).
type Nest struct {
	Name      string
	Row, Col  Loop
	Guard     *Parity
	Stmts     []*Stmt
	PointCost sim.Time
}

// ArrayDecl declares an n×n row-major float32 array. Init (optional)
// fills element (i, j); every backend initializes identically so the
// versions agree from the first iteration.
type ArrayDecl struct {
	Name string
	Init func(i, j, n int) float32
}

// Program is a complete kernel: arrays, reduction scalars, and the
// nests executed in order each iteration. Result names the array the
// checksum sums (scalar finals are folded in afterwards, in declaration
// order).
type Program struct {
	Name    string
	Arrays  []ArrayDecl
	Scalars []string
	Nests   []*Nest
	Result  string
}

// arrayIndex maps array names to their declaration slot.
func (p *Program) arrayIndex() map[string]int {
	m := make(map[string]int, len(p.Arrays))
	for i, a := range p.Arrays {
		m[a.Name] = i
	}
	return m
}

// scalarIndex maps scalar names to their declaration slot.
func (p *Program) scalarIndex() map[string]int {
	m := make(map[string]int, len(p.Scalars))
	for i, s := range p.Scalars {
		m[s] = i
	}
	return m
}

// Validate checks the structural rules the analyzer and backends rely
// on: declared names, matching loop vars in index expressions, and a
// result array. It does not check bounds — those depend on n and are
// the caller's contract, as in any Fortran program.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("loopc: program needs a name")
	}
	arrays := p.arrayIndex()
	scalars := p.scalarIndex()
	if len(arrays) != len(p.Arrays) {
		return fmt.Errorf("loopc: %s: duplicate array declaration", p.Name)
	}
	if _, ok := arrays[p.Result]; !ok {
		return fmt.Errorf("loopc: %s: result array %q not declared", p.Name, p.Result)
	}
	ops := map[string]ReduceOp{}
	for _, nst := range p.Nests {
		if nst.Row.Var == "" || nst.Col.Var == "" || nst.Row.Var == nst.Col.Var {
			return fmt.Errorf("loopc: %s/%s: nests need two distinct loop vars", p.Name, nst.Name)
		}
		if len(nst.Stmts) == 0 {
			return fmt.Errorf("loopc: %s/%s: empty nest", p.Name, nst.Name)
		}
		for si, s := range nst.Stmts {
			// Statement-scoped checks carry the statement index so a
			// generated or minimized program's rejection names the exact
			// offending statement.
			check := func(a Access) error {
				if _, ok := arrays[a.Array]; !ok {
					return fmt.Errorf("loopc: %s/%s: stmt %d: unknown array %q", p.Name, nst.Name, si, a.Array)
				}
				for _, ix := range []Index{a.Row, a.Col} {
					if ix.Var != "" && ix.Var != nst.Row.Var && ix.Var != nst.Col.Var {
						return fmt.Errorf("loopc: %s/%s: stmt %d: index var %q not a loop var", p.Name, nst.Name, si, ix.Var)
					}
				}
				return nil
			}
			var err error
			if s.ReduceInto != "" {
				if _, ok := scalars[s.ReduceInto]; !ok {
					return fmt.Errorf("loopc: %s/%s: stmt %d: unknown scalar %q", p.Name, nst.Name, si, s.ReduceInto)
				}
				if s.Op != ReduceSum && s.Op != ReduceMax {
					return fmt.Errorf("loopc: %s/%s: stmt %d: unknown reduction op %q", p.Name, nst.Name, si, s.Op)
				}
				if prev, seen := ops[s.ReduceInto]; seen && prev != s.Op {
					return fmt.Errorf("loopc: %s/%s: stmt %d: scalar %q reduced with two operators", p.Name, nst.Name, si, s.ReduceInto)
				}
				ops[s.ReduceInto] = s.Op
			} else if err = check(s.LHS); err != nil {
				return err
			}
			s.RHS.walk(func(a Access) {
				if err == nil {
					err = check(a)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
