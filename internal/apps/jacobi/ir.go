package jacobi

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

// ir describes Jacobi as a loopc loop nest: the 4-point stencil into
// the scratch array and the copy back, both over the interior. The
// expression tree's association matches stencilRows exactly, so the
// compiled versions are bit-identical to the hand-coded ones.
func ir(cfg core.Config) *loopc.Program {
	ref := func(arr string, ro, co int) loopc.Expr {
		return loopc.Ref(loopc.At(arr, "i", ro, "j", co))
	}
	stencil := loopc.Mul(loopc.Lit(0.25),
		loopc.Add(loopc.Add(loopc.Add(ref("data", -1, 0), ref("data", 1, 0)), ref("data", 0, -1)), ref("data", 0, 1)))
	interior := loopc.Loop{Lo: loopc.Ext(0, 1), Hi: loopc.Ext(1, -1)}
	row, col := interior, interior
	row.Var, col.Var = "i", "j"
	return &loopc.Program{
		Name: "jacobi",
		Arrays: []loopc.ArrayDecl{
			{Name: "data", Init: edgesOne},
			{Name: "scratch", Init: edgesOne},
		},
		Nests: []*loopc.Nest{
			{
				Name: "stencil", Row: row, Col: col,
				Stmts:     []*loopc.Stmt{{LHS: loopc.At("scratch", "i", 0, "j", 0), RHS: stencil}},
				PointCost: cfg.App.JacobiUpdate,
			},
			{
				Name: "copyback", Row: row, Col: col,
				Stmts:     []*loopc.Stmt{{LHS: loopc.At("data", "i", 0, "j", 0), RHS: ref("scratch", 0, 0)}},
				PointCost: cfg.App.JacobiCopy,
			},
		},
		Result: "data",
	}
}
