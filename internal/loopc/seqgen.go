package loopc

import (
	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/tmk"
)

// RunSeq measures the sequential interpreter under the standard
// measurement protocol (warm-up exclusion, timed region, PointCost
// compute charging) — the "seq" version of a program that exists only
// as IR, such as the generated corpus programs. Hand-ported apps keep
// their hand-written sequential codes; this runner gives generated
// programs the same seq baseline shape.
func RunSeq(app string, cfg core.Config, p *Program) (core.Result, error) {
	if err := p.Validate(); err != nil {
		return core.Result{}, err
	}
	n := cfg.N1
	return apputil.RunSeq(app, cfg, func(tm *tmk.Tmk) apputil.Program {
		arrays := newArrays(p, n)
		scal := make([]float64, len(p.Scalars))
		fr := &frame{n: n, arr: arrays, scal: scal}
		ens := make([]*execNest, len(p.Nests))
		for k, nst := range p.Nests {
			ens[k] = compileNest(p, nst, nil)
		}
		resSlot := p.arrayIndex()[p.Result]
		return apputil.Program{
			Iterate: func(int) {
				resetScalars(p, scal)
				for _, en := range ens {
					cnt := en.runRows(fr, en.nst.Row.Lo.Eval(n), en.nst.Row.Hi.Eval(n))
					tm.Advance(apputil.Cost(cnt, en.nst.PointCost))
				}
			},
			Checksum: func() float64 { return checksum(scal, arrays[resSlot]) },
			Digest:   func() uint64 { return apputil.Digest(arrays[resSlot]) },
		}
	})
}
