package loopc

import (
	"repro/internal/core"
	"repro/internal/xhpf"
)

// RowPartition gives, in combining order, the row sub-ranges a backend
// partitions a parallel nest's row range [lo, hi) into when running on
// procs processors over an n-row iteration space. Entries may be empty
// (lo == hi); an empty entry contributes the reduction identity to the
// combining tree, exactly as an idle processor does.
type RowPartition func(procs, lo, hi, n int) [][2]int

// SPFPartition mirrors the fork-join runtime's BLOCK schedule
// (spf.ParallelDo with spf.Block): ceiling-sized chunks of the nest's
// own [lo, hi) range, one per processor, the tail clamped.
func SPFPartition(procs, lo, hi, n int) [][2]int {
	out := make([][2]int, procs)
	total := hi - lo
	if total < 0 {
		total = 0
	}
	chunk := (total + procs - 1) / procs
	for q := 0; q < procs; q++ {
		mylo := lo + q*chunk
		myhi := mylo + chunk
		if mylo > hi {
			mylo = hi
		}
		if myhi > hi {
			myhi = hi
		}
		out[q] = [2]int{mylo, myhi}
	}
	return out
}

// xhpfPartition mirrors the message-passing runtime's owner-computes
// map: each task owns the xhpf.BlockOf rows of the full 0..n extent and
// executes the intersection of its block with the nest's [lo, hi).
func xhpfPartition(procs, lo, hi, n int) [][2]int {
	out := make([][2]int, procs)
	for q := 0; q < procs; q++ {
		qlo, qhi := xhpf.BlockOf(q, procs, n)
		clo, chi := qlo, qhi
		if clo < lo {
			clo = lo
		}
		if chi > hi {
			chi = hi
		}
		if chi < clo {
			clo, chi = lo, lo
		}
		out[q] = [2]int{clo, chi}
	}
	return out
}

// seqPartition is the single-block partition of a sequential run
// (procs is ignored).
func seqPartition(procs, lo, hi, n int) [][2]int { return [][2]int{{lo, hi}} }

// PartitionFor returns the partition a backend version uses, or nil for
// versions loopc does not lower.
func PartitionFor(v core.Version) RowPartition {
	switch v {
	case core.SPFGen:
		return SPFPartition
	case core.XHPFGen:
		return xhpfPartition
	case core.Seq:
		return seqPartition
	}
	return nil
}

// Oracle executes a program sequentially but combines each parallel
// nest's scalar reductions exactly as a distributed backend running on
// procs processors does: per-block partials accumulated from the
// reduction identity, folded in block (processor) order — the combining
// tree both spf.Reduction.Value and pvm.Reduce implement — then
// combined into the running scalar. Array values do not depend on the
// distribution (parallel nests have no row-carried dependences and each
// row runs on exactly one processor in ascending column order), so they
// are computed in place.
//
// The returned checksum is the exact bitwise value a correct backend
// must produce at that processor count. Float sums are not associative,
// so two backends with different partitions legitimately differ at
// procs > 1; the oracle makes that expectation precise per backend.
//
// iters counts total iterations including warm-up (the measured runners
// iterate Warmup+Iters times and checksum the final state).
//
// Precondition: each scalar is reduced by statements of at most one
// nest (the generator's invariant). A scalar accumulated across several
// nests combines differently under the two backends and the oracle does
// not model that split.
func Oracle(p *Program, n, iters, procs int, part RowPartition) (float64, error) {
	steps, err := Plan(p)
	if err != nil {
		return 0, err
	}
	arrays := newArrays(p, n)
	scal := make([]float64, len(p.Scalars))
	fr := &frame{n: n, arr: arrays, scal: scal}

	type plan struct {
		en       *execNest
		step     *Step
		redSlots []int
	}
	plans := make([]*plan, len(steps))
	for k, st := range steps {
		pl := &plan{en: compileNest(p, st.Info.Nest, nil), step: st}
		_, _, pl.redSlots = lowerUses(p, st)
		plans[k] = pl
	}

	resSlot := p.arrayIndex()[p.Result]
	for it := 0; it < iters; it++ {
		resetScalars(p, scal)
		for _, pl := range plans {
			nst := pl.en.nst
			rowLo, rowHi := nst.Row.Lo.Eval(n), nst.Row.Hi.Eval(n)
			if !pl.step.Parallel || len(pl.redSlots) == 0 {
				// Serial nests accumulate straight into the running
				// scalars (replicated execution under message passing,
				// master execution on the DSM — both sequential), and
				// reduction-free parallel nests only touch arrays.
				pl.en.runRows(fr, rowLo, rowHi)
				continue
			}
			blocks := part(procs, rowLo, rowHi, n)
			bases := make([]float64, len(pl.redSlots))
			for bi, slot := range pl.redSlots {
				bases[bi] = scal[slot]
			}
			partials := make([][]float64, len(blocks))
			for q, b := range blocks {
				for _, slot := range pl.redSlots {
					scal[slot] = identity(p, slot)
				}
				pl.en.runRows(fr, b[0], b[1])
				snap := make([]float64, len(pl.redSlots))
				for bi, slot := range pl.redSlots {
					snap[bi] = scal[slot]
				}
				partials[q] = snap
			}
			for bi, slot := range pl.redSlots {
				op := scalarOp(p, slot)
				folded := partials[0][bi]
				for q := 1; q < len(partials); q++ {
					folded = combine(op, folded, partials[q][bi])
				}
				scal[slot] = combine(op, bases[bi], folded)
			}
		}
	}
	return checksum(scal, arrays[resSlot]), nil
}
