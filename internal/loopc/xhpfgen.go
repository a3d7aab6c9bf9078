package loopc

import (
	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/xhpf"
)

// xhpfPlan is one nest lowered for the SPMD message-passing runtime.
type xhpfPlan struct {
	step     *Step
	en       *execNest
	redSlots []int
	bases    []float64 // per redSlot: the running scalar while the nest's partial accumulates
}

// xhpfHalos decides what every processor stores of each array (by
// declaration slot): the halo, in rows, around its BLOCK of rows. An
// array any serial nest uses, or any parallel nest reads through a
// non-row index (FullRead), is replicated — halo n keeps every row —
// because the generated program really does hold it everywhere. Every
// other array is only ever touched within its largest halo-exchange
// width of the owned rows, so that is all a processor allocates.
func xhpfHalos(p *Program, steps []*Step, n int) []int {
	idx := p.arrayIndex()
	halo := make([]int, len(p.Arrays))
	for _, st := range steps {
		for name := range st.Info.Uses {
			if !st.Parallel || st.FullRead[name] {
				halo[idx[name]] = n
			}
		}
		for _, h := range st.Halo {
			halo[idx[h.Array]] = max(halo[idx[h.Array]], h.Width)
		}
	}
	return halo
}

// RunXHPF compiles the program for the XHPF message-passing runtime —
// the "xhpf-gen" application version. The lowering follows the
// compiler model of package xhpf: BLOCK owner-computes distribution of
// each parallel loop over whole rows (block-and-halo storage, see
// xhpfHalos), exact-section halo exchanges whose widths come from the
// dependence distances, runtime synchronization (LoopSync) at every
// parallel-loop boundary, recognized reductions as all-reduces so the
// replicated sequential code has the result everywhere, and
// whole-partition broadcasts ahead of serial (replicated) nests that
// read distributed data.
func RunXHPF(app string, v core.Version, cfg core.Config, p *Program) (core.Result, error) {
	steps, err := Plan(p)
	if err != nil {
		return core.Result{}, err
	}
	n := cfg.N1
	halos := xhpfHalos(p, steps, n)
	return apputil.RunXHPF(app, v, cfg, func(x *xhpf.XHPF) apputil.Program {
		// BLOCK distribution over whole rows, as the hand-coded versions
		// do it: the communication is byte-identical to theirs.
		bounds := xhpf.BlockBounds(x.NProcs(), n)
		rowBlock := func(q int) (lo, hi int) { return bounds[q] * n, bounds[q+1] * n }
		rlo, rhi := bounds[x.ID()], bounds[x.ID()+1]

		arrays := make([]*xhpf.Local[float32], len(p.Arrays))
		fr := &frame{n: n, arr: make([][]float32, len(p.Arrays)), scal: make([]float64, len(p.Scalars))}
		offs := make([]int, len(p.Arrays))
		for k, a := range p.Arrays {
			l := xhpf.NewLocal[float32](a.Name, x.ID(), bounds, n, halos[k])
			slo, shi := l.Stored()
			if a.Init != nil {
				fillInit(l.Data(), a.Init, n, slo, shi)
			}
			arrays[k], fr.arr[k], offs[k] = l, l.Data(), slo*n
		}
		idents := make([]float64, len(p.Scalars))
		ops := make([]ReduceOp, len(p.Scalars))
		for k := range p.Scalars {
			idents[k] = identity(p, k)
			ops[k] = scalarOp(p, k)
		}
		arrIdx := p.arrayIndex()

		plans := make([]*xhpfPlan, len(steps))
		for k, st := range steps {
			pl := &xhpfPlan{step: st, en: compileNest(p, st.Info.Nest, offs)}
			_, _, pl.redSlots = lowerUses(p, st)
			pl.bases = make([]float64, len(pl.redSlots))
			plans[k] = pl
		}

		resSlot := arrIdx[p.Result]
		var out [][]float32 // the gathered result array, on process 0
		return apputil.Program{
			Iterate: func(it int) {
				copy(fr.scal, idents)
				for _, pl := range plans {
					nst := pl.en.nst
					rowLo, rowHi := nst.Row.Lo.Eval(n), nst.Row.Hi.Eval(n)
					if pl.step.Parallel {
						for _, h := range pl.step.Halo {
							xhpf.ExchangeHalo(x, arrays[arrIdx[h.Array]], h.Width)
						}
						// Owner-computes intersection of the owned rows with
						// the nest's iteration space.
						clo, chi := max(rlo, rowLo), min(rhi, rowHi)
						for bi, slot := range pl.redSlots {
							pl.bases[bi] = fr.scal[slot]
							fr.scal[slot] = idents[slot]
						}
						if chi > clo {
							cnt := pl.en.runRows(fr, clo, chi)
							x.Advance(apputil.Cost(cnt, nst.PointCost))
						}
						for bi, slot := range pl.redSlots {
							op := ops[slot]
							folded := xhpf.AllReduceWith(x, []float64{fr.scal[slot]},
								func(a, b float64) float64 { return combine(op, a, b) })
							fr.scal[slot] = combine(op, pl.bases[bi], folded[0])
						}
						x.LoopSync()
						continue
					}
					// Serial nest: replicated execution after making the
					// replicated copies current.
					for _, name := range pl.step.Bcast {
						xhpf.BroadcastBlocks(x, arrays[arrIdx[name]].Rows(0, n), rowBlock)
					}
					cnt := pl.en.runRows(fr, rowLo, rowHi)
					x.Advance(apputil.Cost(cnt, nst.PointCost))
					x.LoopSync()
				}
			},
			Checksum: func() float64 {
				// Measurement postlude, as the hand-coded versions do it.
				out = pvm.GatherUntracked(x.PVM(), 90, arrays[resSlot].Owned())
				return checksum(fr.scal, out...)
			},
			Digest: func() uint64 { return apputil.Digest(out...) },
		}
	})
}
