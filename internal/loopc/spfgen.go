package loopc

import (
	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/spf"
	"repro/internal/tmk"
)

// readSpan is one array's read window for a parallel slice: rows
// [lo+min, hi+max), clamped to the array; full means the whole region
// (reads whose rows do not follow the slice).
type readSpan struct {
	slot     int
	min, max int
	full     bool
}

// rows returns the span's rows for the slice [lo,hi) of an n-row array.
func (rs readSpan) rows(lo, hi, n int) (int, int) {
	if rs.full {
		return 0, n
	}
	return clampRow(lo+rs.min, n), clampRow(hi+rs.max, n)
}

// spfPlan is one nest lowered for the fork-join runtime. A parallel
// nest runs against views of the rows its slice validated, so it is
// compiled when the slice is known: en holds it compiled for a slice
// beginning at row enLo (BLOCK scheduling hands a processor the same
// slice every time). Serial nests run on whole arrays.
type spfPlan struct {
	step     *nestStep
	en       *execNest
	enLo     int
	loop     int // registered subroutine index (parallel nests)
	reads    []readSpan
	writes   []int // written slots, declaration order
	redSlots []int // scalar slots the nest reduces into
}

// readRows returns the rows the nest reads of an array slot for the
// slice [lo,hi), and whether it reads the array at all.
func (pl *spfPlan) readRows(slot, lo, hi, n int) (rlo, rhi int, ok bool) {
	for _, rs := range pl.reads {
		if rs.slot == slot {
			rlo, rhi = rs.rows(lo, hi, n)
			return rlo, rhi, true
		}
	}
	return 0, 0, false
}

// lowerUses computes the declaration-order read spans, write slots and
// reduction slots of a step (shared by both backends).
func lowerUses(p *Program, st *nestStep) (reads []readSpan, writes, redSlots []int) {
	idx := p.arrayIndex()
	for slot, a := range p.Arrays {
		u := st.info.uses[a.Name]
		if u == nil {
			continue
		}
		if u.read {
			rr := st.readRange[a.Name]
			reads = append(reads, readSpan{
				slot: idx[a.Name], min: rr[0], max: rr[1],
				full: st.fullRead[a.Name],
			})
		}
		if u.written {
			writes = append(writes, slot)
		}
	}
	sidx := p.scalarIndex()
	for _, s := range st.info.reduces {
		slot := sidx[s.ReduceInto]
		seen := false
		for _, have := range redSlots {
			if have == slot {
				seen = true
			}
		}
		if !seen {
			redSlots = append(redSlots, slot)
		}
	}
	return reads, writes, redSlots
}

// RunSPF compiles the program for the SPF fork-join DSM runtime and
// measures it under the standard protocol (warm-up exclusion, timed
// region) — the "spf-gen" application version. The lowering is exactly
// what the mechanical compiler model of package spf prescribes: every
// array touched by a parallel loop lives in shared memory, every
// parallel nest is an encapsulated subroutine dispatched with
// ParallelDo under BLOCK scheduling, scalar reductions go through
// lock-protected shared slots, and serial nests run on the master.
func RunSPF(app string, v core.Version, cfg core.Config, p *Program) (core.Result, error) {
	steps, err := planSteps(p)
	if err != nil {
		return core.Result{}, err
	}
	n := cfg.N1
	return apputil.RunSPF(app, v, cfg, func(rt *spf.Runtime) apputil.Program {
		tm := rt.Tmk()
		regs := make([]*tmk.Region[float32], len(p.Arrays))
		for k, a := range p.Arrays {
			regs[k] = tmk.Alloc[float32](tm, a.Name, n*n)
		}
		reds := make([]*spf.Reduction, len(p.Scalars))
		idents := make([]float64, len(p.Scalars))
		for k, name := range p.Scalars {
			op := scalarOp(p, k)
			reds[k] = spf.NewReduction(rt, name, func(a, b float64) float64 { return combine(op, a, b) })
			idents[k] = identity(p, k)
		}
		fr := &frame{n: n, arr: make([][]float32, len(p.Arrays)), scal: make([]float64, len(p.Scalars))}

		// bind validates a slice's pages (reads first, then writes, in
		// declaration order — the order a hand coder writes), points the
		// frame at one view per array and returns the nest compiled for
		// the rows those views begin at. An array the nest both reads
		// and writes keeps its read view, which holds the written rows
		// too; should it not, the Write may have moved the pages under
		// that view, and one more Read over both spans (and any rows
		// between them) replaces it.
		offs := make([]int, len(p.Arrays))
		bind := func(pl *spfPlan, lo, hi int) *execNest {
			for _, rs := range pl.reads {
				rlo, rhi := rs.rows(lo, hi, n)
				fr.arr[rs.slot], offs[rs.slot] = regs[rs.slot].Read(rlo*n, rhi*n), rlo*n
			}
			for _, slot := range pl.writes {
				w := regs[slot].Write(lo*n, hi*n)
				rlo, rhi, read := pl.readRows(slot, lo, hi, n)
				switch {
				case !read:
					fr.arr[slot], offs[slot] = w, lo*n
				case rlo <= lo && hi <= rhi: // within the read view
				default:
					rlo = min(rlo, lo)
					fr.arr[slot], offs[slot] = regs[slot].Read(rlo*n, max(rhi, hi)*n), rlo*n
				}
			}
			if pl.en == nil || pl.enLo != lo {
				pl.en, pl.enLo = compileNest(p, pl.step.info.Nest, offs), lo
			}
			return pl.en
		}

		plans := make([]*spfPlan, len(steps))
		for k, st := range steps {
			pl := &spfPlan{step: st, loop: -1}
			pl.reads, pl.writes, pl.redSlots = lowerUses(p, st)
			plans[k] = pl
			if !st.parallel {
				pl.en = compileNest(p, st.info.Nest, nil)
				continue
			}
			pl.loop = rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
				if lo >= hi {
					return
				}
				en := bind(pl, lo, hi)
				for _, slot := range pl.redSlots {
					fr.scal[slot] = idents[slot]
				}
				cnt := en.runRows(fr, lo, hi)
				rt.Advance(apputil.Cost(cnt, en.nst.PointCost))
				for _, slot := range pl.redSlots {
					reds[slot].Combine(rt, fr.scal[slot])
				}
			})
		}

		if rt.IsMaster() {
			for k, a := range p.Arrays {
				if a.Init == nil {
					continue
				}
				fillInit(regs[k].Write(0, n*n), a.Init, n, 0, n)
			}
		}

		resSlot := p.arrayIndex()[p.Result]
		return apputil.Program{
			Iterate: func(it int) {
				for k := range reds {
					reds[k].Reset(idents[k])
				}
				for _, pl := range plans {
					nst := pl.step.info.Nest
					if pl.step.parallel {
						rt.ParallelDo(pl.loop, nst.Row.Lo.Eval(n), nst.Row.Hi.Eval(n), spf.Block)
						continue
					}
					// Serial nest: the master runs the sequential code, as
					// the fork-join model prescribes.
					for _, rs := range pl.reads {
						fr.arr[rs.slot] = regs[rs.slot].Read(0, n*n)
					}
					for _, slot := range pl.writes {
						fr.arr[slot] = regs[slot].Write(0, n*n)
					}
					for _, slot := range pl.redSlots {
						fr.scal[slot] = idents[slot]
					}
					cnt := pl.en.runRows(fr, nst.Row.Lo.Eval(n), nst.Row.Hi.Eval(n))
					rt.Advance(apputil.Cost(cnt, nst.PointCost))
					for _, slot := range pl.redSlots {
						reds[slot].Combine(rt, fr.scal[slot])
					}
				}
			},
			Checksum: func() float64 {
				g := regs[resSlot].Read(0, n*n)
				finals := make([]float64, len(reds))
				for k := range reds {
					finals[k] = reds[k].Value()
				}
				return checksum(finals, g)
			},
			Digest: func() uint64 { return apputil.Digest(regs[resSlot].Read(0, n*n)) },
		}
	})
}
