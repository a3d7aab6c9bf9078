// Package jacobi implements the paper's Jacobi application (§5.1): an
// iterative 4-point-stencil solver on an N×N single-precision grid, in
// all the paper's versions.
//
// The grid's edges are fixed at one and the interior starts at zero, so
// values propagate inward from the edges — which is why the TreadMarks
// versions move so little data (Table 2): diffs carry only the bytes
// that actually changed.
//
// Each iteration has two phases: the stencil update into a scratch
// array, and the copy back. Both loops are parallel; the shared-memory
// versions need a barrier between the phases to respect the
// anti-dependence, and one at the end of the iteration. Only spf*
// shares the scratch array. A process that owns its rows (seq, xhpf,
// pvme) fuses the two phases over one grid through a two-row line
// buffer (relaxRows) and charges them as before; tmk and tmk-push do
// the same after the barrier, with a block's two edge rows computed
// before it (runTmk).
//
// Orientation: the paper's Fortran arrays are column-major and
// partitioned by columns, exchanging boundary columns; this Go port is
// row-major and partitioned by rows, exchanging boundary rows. The
// contiguity structure — a 2048-element single-precision boundary
// spanning two 4 KB pages — is identical.
package jacobi

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/loopc"
	"repro/internal/pvm"
	"repro/internal/spf"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

// app implements core.App.
type app struct{}

// New returns the Jacobi application.
func New() core.App { return app{} }

func (app) Name() string { return "Jacobi" }

func (app) Config(scale core.Scale, procs int) core.Config {
	switch scale {
	case core.SmallScale:
		return core.Config{Procs: procs, N1: 64, Iters: 4, Warmup: 1}
	case core.MidScale:
		return core.Config{Procs: procs, N1: 1024, Iters: 20, Warmup: 1}
	default:
		return core.Config{Procs: procs, N1: 2048, Iters: 100, Warmup: 1}
	}
}

func (app) Versions() []core.Version {
	return []core.Version{core.Seq, core.SPF, core.Tmk, core.XHPF, core.PVMe, core.SPFOpt, core.SPFOld, core.TmkPush, core.SPFGen, core.XHPFGen}
}

func (a app) Run(v core.Version, cfg core.Config) (core.Result, error) {
	switch v {
	case core.Seq:
		return runSeq(cfg)
	case core.Tmk, core.TmkPush:
		return runTmk(cfg, v)
	case core.SPF, core.SPFOld, core.SPFOpt:
		return runSPF(cfg, v)
	case core.XHPF:
		return runXHPF(cfg)
	case core.PVMe:
		return runPVM(cfg)
	case core.SPFGen:
		return loopc.RunSPF("Jacobi", core.SPFGen, cfg, ir(cfg))
	case core.XHPFGen:
		return loopc.RunXHPF("Jacobi", core.XHPFGen, cfg, ir(cfg))
	}
	return core.Result{}, fmt.Errorf("jacobi: unsupported version %q", v)
}

// stencilRows computes the 4-point stencil for rows [rlo,rhi) of src
// into dst (interior columns only). rlo and rhi are global rows; dstOff
// and srcOff are the global rows dst and src begin at (arrays that hold
// only a band: a DSM view, tmk's edge buffer).
//
// The five row slices have one length, so the inner loop carries no
// bounds checks. The expression — 0.25*(((up+down)+left)+right), all
// float32 — is the one the IR encodes and every version must reproduce
// bit for bit: do not reassociate it.
func stencilRows(dst, src []float32, n, rlo, rhi, dstOff, srcOff int) {
	w := n - 2
	if w <= 0 {
		return
	}
	for i := rlo; i < rhi; i++ {
		s := (i-srcOff)*n + 1
		out := dst[(i-dstOff)*n+1:][:w]
		up, down := src[s-n:][:w], src[s+n:][:w]
		left, right := src[s-1:][:w], src[s+1:][:w]
		for j := range out {
			out[j] = 0.25 * (up[j] + down[j] + left[j] + right[j])
		}
	}
}

// copyRows copies interior columns of global rows [rlo,rhi) from src
// into dst, which begin at global rows srcOff and dstOff.
func copyRows(dst, src []float32, n, rlo, rhi, dstOff, srcOff int) {
	for i := rlo; i < rhi; i++ {
		d := (i - dstOff) * n
		s := (i - srcOff) * n
		copy(dst[d+1:d+n-1], src[s+1:s+n-1])
	}
}

// relaxRows is one Jacobi step in place over rows [rlo,rhi) of g, which
// begins at global row off and holds rows rlo-1 and rhi as well (a halo
// or the fixed edges). Row i is computed into line, two rows of n-2
// values, and written back to g only after row i+1 is computed, the
// last stencil that reads its old values; so every stencil reads the
// old grid, and g ends bit for bit as stencilRows into a scratch array
// then copyRows back leaves it.
func relaxRows(g, line []float32, n, rlo, rhi, off int) {
	w := n - 2
	if w <= 0 || rhi <= rlo {
		return
	}
	cur, prev := line[:w], line[w:][:w]
	for i := rlo; i < rhi; i++ {
		s := (i-off)*n + 1
		up, down := g[s-n:][:w], g[s+n:][:w]
		left, right := g[s-1:][:w], g[s+1:][:w]
		for j := range cur {
			cur[j] = 0.25 * (up[j] + down[j] + left[j] + right[j])
		}
		if i > rlo {
			copy(up, prev)
		}
		cur, prev = prev, cur
	}
	copy(g[(rhi-1-off)*n+1:][:w], prev)
}

func runSeq(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunSeq("Jacobi", cfg, func(tm *tmk.Tmk) apputil.Program {
		data := make([]float32, n*n)
		line := make([]float32, 2*n)
		apputil.EdgesOne(data, n)
		interior := (n - 2) * (n - 2)
		return apputil.Program{
			Iterate: func(k int) {
				relaxRows(data, line, n, 1, n-1, 0)
				tm.Advance(apputil.Cost(interior, cfg.App.JacobiUpdate))
				tm.Advance(apputil.Cost(interior, cfg.App.JacobiCopy))
			},
			Checksum: func() float64 { return apputil.Sum64(data) },
			Digest:   func() uint64 { return apputil.Digest(data) },
		}
	})
}

// runTmk is the hand-coded TreadMarks version: the grid is shared and
// the block's rows are relaxed in place, with no scratch grid (the 2%
// SPF gap of §5.1 comes from SPF sharing one). A shared page may be
// written only after Write twins it, past the barrier, so each
// iteration splits the rows. Before the barrier the block's edge rows,
// the only ones whose stencil reads a neighbour's halo row, go into the
// two-row edge buffer: under hlrc a home applies a neighbour's diffs to
// those halo rows whenever they arrive, so they must be read in phase 1.
// After the barrier the interior rows, which read only this processor's
// own rows, are relaxed in place through the line buffer and the edge
// rows copied in. A block of one or two rows is edge rows only.
// tmk-push is the §8 optimization: boundary-row diffs travel with the
// barrier (producer push) instead of being page-faulted in afterwards
// (consumer pull), halving the message count and hiding the fetch
// round trips.
func runTmk(cfg core.Config, v core.Version) (core.Result, error) {
	n := cfg.N1
	push := v == core.TmkPush
	return apputil.RunTmk("Jacobi", v, cfg, func(tm *tmk.Tmk) apputil.Program {
		data := tmk.Alloc[float32](tm, "data", n*n)
		lo, hi := apputil.BlockOf(tm.ID(), tm.NProcs(), n-2)
		lo, hi = lo+1, hi+1 // interior rows
		rows := hi - lo
		// edge holds row lo's new values, then row hi-1's.
		edge, line := make([]float32, 2*n), make([]float32, 2*n)
		if tm.ID() == 0 {
			w := data.Write(0, n*n)
			apputil.EdgesOne(w, n)
		}
		if push && rows > 0 {
			// Pair only with non-empty neighbours (xhpf's
			// Local.Neighbors): empty blocks trail, so the lower one is
			// never empty and the upper one is when this block ends the
			// interior.
			me := tm.ID()
			if me > 0 {
				tmk.PushOnBarrier(tm, data, lo*n, (lo+1)*n, me-1)
				tm.ExpectPushOnBarrier(me - 1)
			}
			if hi < n-1 {
				tmk.PushOnBarrier(tm, data, (hi-1)*n, hi*n, me+1)
				tm.ExpectPushOnBarrier(me + 1)
			}
		}
		tm.Barrier()
		return apputil.Program{
			Iterate: func(k int) {
				if rows > 0 {
					rd := data.Read((lo-1)*n, (hi+1)*n)
					edgeRows(edge, rd, n, lo, hi, lo-1)
					tm.Advance(apputil.Cost(rows*(n-2), cfg.App.JacobiUpdate))
				}
				tm.Barrier()
				if rows > 0 {
					w := data.Write(lo*n, hi*n)
					relaxRows(w, line, n, lo+1, hi-1, lo)
					copyEdgeRows(w, edge, n, lo, hi, lo)
					tm.Advance(apputil.Cost(rows*(n-2), cfg.App.JacobiCopy))
				}
				tm.Barrier()
			},
			Checksum: func() float64 {
				return apputil.Sum64(data.Read(0, n*n))
			},
			Digest: func() uint64 {
				return apputil.Digest(data.Read(0, n*n))
			},
		}
	})
}

// edgeRows computes the stencil of rows lo and hi-1 of the non-empty
// band [lo,hi) from src, which begins at global row srcOff, into edge:
// row lo first, row hi-1 second (one row when they coincide).
func edgeRows(edge, src []float32, n, lo, hi, srcOff int) {
	stencilRows(edge, src, n, lo, lo+1, lo, srcOff)
	if hi-1 > lo {
		stencilRows(edge, src, n, hi-1, hi, hi-2, srcOff)
	}
}

// copyEdgeRows copies edgeRows' output into rows lo and hi-1 of dst,
// which begins at global row dstOff.
func copyEdgeRows(dst, edge []float32, n, lo, hi, dstOff int) {
	copyRows(dst, edge, n, lo, lo+1, dstOff, lo)
	if hi-1 > lo {
		copyRows(dst, edge, n, hi-1, hi, dstOff, hi-2)
	}
}

// runSPF is the compiler-generated shared-memory version: both arrays
// live in shared memory (the SPF compiler shares every array touched by
// a parallel loop), and each phase is an encapsulated parallel loop
// dispatched through the fork-join interface (spf-old: the original
// one, which apputil.RunSPF reads from the version table). spf-opt is
// the §5.1 hand optimization: data aggregation through the enhanced
// interface.
func runSPF(cfg core.Config, v core.Version) (core.Result, error) {
	n := cfg.N1
	aggregated := v == core.SPFOpt
	return apputil.RunSPF("Jacobi", v, cfg, func(rt *spf.Runtime) apputil.Program {
		tm := rt.Tmk()
		data := tmk.Alloc[float32](tm, "data", n*n)
		scratch := tmk.Alloc[float32](tm, "scratch", n*n)

		phase1 := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if lo >= hi {
				return
			}
			var rd, w []float32
			if aggregated {
				rd = data.ReadAggregated((lo-1)*n, (hi+1)*n)
				w = scratch.WriteAggregated(lo*n, hi*n)
			} else {
				rd = data.Read((lo-1)*n, (hi+1)*n)
				w = scratch.Write(lo*n, hi*n)
			}
			stencilRows(w, rd, n, lo, hi, lo, lo-1)
			rt.Advance(apputil.Cost((hi-lo)*(n-2), cfg.App.JacobiUpdate))
		})
		phase2 := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if lo >= hi {
				return
			}
			var rd, w []float32
			if aggregated {
				rd = scratch.ReadAggregated(lo*n, hi*n)
				w = data.WriteAggregated(lo*n, hi*n)
			} else {
				rd = scratch.Read(lo*n, hi*n)
				w = data.Write(lo*n, hi*n)
			}
			copyRows(w, rd, n, lo, hi, lo, lo)
			rt.Advance(apputil.Cost((hi-lo)*(n-2), cfg.App.JacobiCopy))
		})

		if rt.IsMaster() {
			w := data.Write(0, n*n)
			apputil.EdgesOne(w, n)
			ws := scratch.Write(0, n*n)
			apputil.EdgesOne(ws, n)
		}
		return apputil.Program{
			Iterate: func(k int) {
				rt.ParallelDo(phase1, 1, n-1, spf.Block)
				rt.ParallelDo(phase2, 1, n-1, spf.Block)
			},
			Checksum: func() float64 {
				return apputil.Sum64(data.Read(0, n*n))
			},
			Digest: func() uint64 {
				return apputil.Digest(data.Read(0, n*n))
			},
		}
	})
}

// band is a message-passing processor's storage: BLOCK distribution by
// whole rows, the grid with a one-row halo and edges at one, and the
// line buffer relaxRows works through — the processor owns its rows, so
// it needs no scratch grid (nor does runTmk's; only spf*'s is shared).
// clo and chi bound the owned interior rows; off is the row base the
// kernel takes.
type band struct {
	data          *xhpf.Local[float32]
	line          []float32
	clo, chi, off int
}

func newBand(me, nprocs, n int) band {
	b := band{
		data: xhpf.NewLocal[float32]("data", me, xhpf.BlockBounds(nprocs, n), n, 1),
		line: make([]float32, 2*n),
	}
	rlo, rhi := b.data.Block()
	b.clo, b.chi = max(rlo, 1), min(rhi, n-1)
	var dHi int
	b.off, dHi = b.data.Stored()
	apputil.EdgesOneRows(b.data.Data(), n, b.off, dHi)
	return b
}

// relax is relaxRows over the owned interior rows.
func (b band) relax(n int) { relaxRows(b.data.Data(), b.line, n, b.clo, b.chi, b.off) }

// runXHPF is the compiler-generated message-passing version: BLOCK
// row distribution, halo exchange generated for the analyzable stencil,
// and runtime synchronization at each parallel-loop boundary.
func runXHPF(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunXHPF("Jacobi", core.XHPF, cfg, func(x *xhpf.XHPF) apputil.Program {
		b := newBand(x.ID(), x.NProcs(), n)
		var out [][]float32 // the gathered grid, on process 0
		return apputil.Program{
			Iterate: func(k int) {
				xhpf.ExchangeHalo(x, b.data, 1)
				// The copy-back is done by relaxRows already; its charge
				// stays after the generated sync, where the compiled
				// program's second loop runs.
				if b.chi > b.clo {
					b.relax(n)
					x.Advance(apputil.Cost((b.chi-b.clo)*(n-2), cfg.App.JacobiUpdate))
				}
				x.LoopSync()
				if b.chi > b.clo {
					x.Advance(apputil.Cost((b.chi-b.clo)*(n-2), cfg.App.JacobiCopy))
				}
				x.LoopSync()
			},
			Checksum: func() float64 {
				out = pvm.GatherUntracked(x.PVM(), 90, b.data.Owned())
				return apputil.Sum64(out...)
			},
			Digest: func() uint64 { return apputil.Digest(out...) },
		}
	})
}

// runPVM is the hand-coded message-passing version: boundary rows are
// exchanged directly — a single message carries both the data and the
// synchronization, and no communication at all separates the two phases.
func runPVM(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunPVM("Jacobi", core.PVMe, cfg, func(pv *pvm.PVM) apputil.Program {
		me := pv.ID()
		b := newBand(me, pv.NProcs(), n)
		rlo, rhi := b.data.Block()
		down, up := b.data.Neighbors()
		var out [][]float32 // the gathered grid, on process 0
		return apputil.Program{
			Iterate: func(k int) {
				// Boundary-row exchange: send up, send down, receive.
				if down {
					pvm.Send(pv, me-1, 70, b.data.Rows(rlo, rlo+1))
				}
				if up {
					pvm.Send(pv, me+1, 71, b.data.Rows(rhi-1, rhi))
				}
				if down {
					pvm.Recv(pv, me-1, 71, b.data.Rows(rlo-1, rlo))
				}
				if up {
					pvm.Recv(pv, me+1, 70, b.data.Rows(rhi, rhi+1))
				}
				if b.chi > b.clo {
					b.relax(n)
					pv.Advance(apputil.Cost((b.chi-b.clo)*(n-2), cfg.App.JacobiUpdate))
					pv.Advance(apputil.Cost((b.chi-b.clo)*(n-2), cfg.App.JacobiCopy))
				}
			},
			Checksum: func() float64 {
				out = pvm.GatherUntracked(pv, 90, b.data.Owned())
				return apputil.Sum64(out...)
			},
			Digest: func() uint64 { return apputil.Digest(out...) },
		}
	})
}
