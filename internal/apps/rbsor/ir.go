package rbsor

import (
	"repro/internal/core"
	"repro/internal/loopc"
)

// edgesOne is apputil.EdgesOne in IR form: edges one, interior zero.
func edgesOne(i, j, n int) float32 {
	if i == 0 || j == 0 || i == n-1 || j == n-1 {
		return 1
	}
	return 0
}

// ir describes red-black SOR as a loopc program: two guarded nests
// over the same in-place grid. Without the parity guards the in-place
// 5-point update carries a row dependence and the analyzer would
// (correctly) serialize it; with them each sweep is DOALL with a
// one-row halo. The expression tree matches sweepRows' association
// exactly.
func ir(cfg core.Config) *loopc.Program {
	ref := func(ro, co int) loopc.Expr {
		return loopc.Ref(loopc.At("u", "i", ro, "j", co))
	}
	relax := loopc.Add(
		loopc.Mul(loopc.Lit(cSelf), ref(0, 0)),
		loopc.Mul(loopc.Lit(cStencil),
			loopc.Add(loopc.Add(loopc.Add(ref(-1, 0), ref(1, 0)), ref(0, -1)), ref(0, 1))))
	sweep := func(name string, color int) *loopc.Nest {
		return &loopc.Nest{
			Name:      name,
			Row:       loopc.Loop{Var: "i", Lo: loopc.Ext(0, 1), Hi: loopc.Ext(1, -1)},
			Col:       loopc.Loop{Var: "j", Lo: loopc.Ext(0, 1), Hi: loopc.Ext(1, -1)},
			Guard:     &loopc.Parity{Rem: color},
			Stmts:     []*loopc.Stmt{{LHS: loopc.At("u", "i", 0, "j", 0), RHS: relax}},
			PointCost: cfg.App.SORUpdate,
		}
	}
	return &loopc.Program{
		Name:   "rbsor",
		Arrays: []loopc.ArrayDecl{{Name: "u", Init: edgesOne}},
		Nests:  []*loopc.Nest{sweep("red", 0), sweep("black", 1)},
		Result: "u",
	}
}
