// Package rbsor implements red-black successive over-relaxation, the
// first application added through the internal/loopc compiler front
// end rather than reproduced from the paper. The kernel is the classic
// 5-point Gauss-Seidel relaxation with over-relaxation factor ω,
// split into two half-sweeps by the parity of (i+j): the red sweep
// updates even points reading only black neighbors, the black sweep
// the reverse. In-place updates make the nest look serial to a naive
// dependence test; the parity split is exactly what loopc's analyzer
// must see through to classify both sweeps DOALL (and what the paper's
// compilers saw through on real codes).
//
// The grid geometry matches Jacobi: an N×N single-precision grid,
// edges fixed at one, interior starting at zero, row-partitioned with
// single-row halos.
package rbsor

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

// Over-relaxation factor and the derived update coefficients. Both are
// exactly representable in float32, so constant folding here and
// Lit(...) constants in the IR agree to the bit.
const (
	omega    = 1.25
	cSelf    = 1 - omega    // -0.25
	cStencil = omega * 0.25 // 0.3125
)

// app implements core.App.
type app struct{}

// New returns the red-black SOR application.
func New() core.App { return app{} }

func (app) Name() string { return "RB-SOR" }

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
	return []core.Version{core.Seq, core.SPF, core.Tmk, core.XHPF, core.PVMe, core.SPFGen, core.XHPFGen}
}

func (a app) Run(v core.Version, cfg core.Config) (core.Result, error) {
	switch v {
	case core.Seq:
		return runSeq(cfg)
	case core.Tmk:
		return runTmk(cfg)
	case core.SPF:
		return runSPF(cfg)
	case core.XHPF:
		return runXHPF(cfg)
	case core.PVMe:
		return runPVM(cfg)
	case core.SPFGen:
		return loopc.RunSPF("RB-SOR", core.SPFGen, cfg, ir(cfg))
	case core.XHPFGen:
		return loopc.RunXHPF("RB-SOR", core.XHPFGen, cfg, ir(cfg))
	}
	return core.Result{}, fmt.Errorf("rbsor: unsupported version %q", v)
}

// sweepRows relaxes the points of one color ((i+j) mod 2 == color) in
// interior columns of global rows [rlo,rhi), in place, and returns the
// number of points updated. u begins at global row off (nonzero for a
// DSM view of a band and its halo rows, and for a message-passing
// processor's block and halo). The expression shape — cSelf*self +
// cStencil*(((up+down)+left)+right) — is the one the IR encodes; do not
// reassociate it.
//
// Each row is walked with stride 2 from its first point of the color,
// through five equal-length views of the grid (self, up, down, left,
// right) so the inner loop carries no bounds checks. A point's four
// neighbors are all of the other color, which this sweep never writes,
// so the order within a sweep cannot matter.
func sweepRows(u []float32, n, rlo, rhi, color, off int) int {
	if n < 3 {
		return 0
	}
	cnt := 0
	for i := rlo; i < rhi; i++ {
		row := (i - off) * n
		s := row + 1 + (i+1+color)&1 // first interior point of this color
		self := u[s : row+n-1]
		w := len(self)
		up, down := u[s-n:][:w], u[s+n:][:w]
		left, right := u[s-1:][:w], u[s+1:][:w]
		for j := 0; j < w; j += 2 {
			self[j] = cSelf*self[j] + cStencil*(up[j]+down[j]+left[j]+right[j])
		}
		cnt += (w + 1) / 2
	}
	return cnt
}

func runSeq(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunSeq("RB-SOR", cfg, func(tm *tmk.Tmk) apputil.Program {
		u := make([]float32, n*n)
		apputil.EdgesOne(u, n)
		return apputil.Program{
			Iterate: func(k int) {
				for color := 0; color < 2; color++ {
					cnt := sweepRows(u, n, 1, n-1, color, 0)
					tm.Advance(apputil.Cost(cnt, cfg.App.SORUpdate))
				}
			},
			Checksum: func() float64 { return apputil.Sum64(u) },
		}
	})
}

// runTmk is the hand-coded TreadMarks version: the grid is shared,
// each process relaxes its own rows in place, and a barrier separates
// the color sweeps (black reads red's boundary updates).
func runTmk(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunTmk("RB-SOR", core.Tmk, cfg, func(tm *tmk.Tmk) apputil.Program {
		u := tmk.Alloc[float32](tm, "u", n*n)
		lo, hi := apputil.BlockOf(tm.ID(), tm.NProcs(), n-2)
		lo, hi = lo+1, hi+1 // interior rows
		rows := hi - lo
		if tm.ID() == 0 {
			w := u.Write(0, n*n)
			apputil.EdgesOne(w, n)
		}
		tm.Barrier()
		return apputil.Program{
			Iterate: func(k int) {
				for color := 0; color < 2; color++ {
					if rows > 0 {
						// One view of the band and its halo rows; Write
						// twins the rows relaxed through it.
						v := u.Read((lo-1)*n, (hi+1)*n)
						u.Write(lo*n, hi*n)
						cnt := sweepRows(v, n, lo, hi, color, lo-1)
						tm.Advance(apputil.Cost(cnt, cfg.App.SORUpdate))
					}
					tm.Barrier()
				}
			},
			Checksum: func() float64 {
				return apputil.Sum64(u.Read(0, n*n))
			},
		}
	})
}

// runSPF is the hand-written rendition of what the SPF compiler emits
// for the red-black nest: the grid in shared memory and one
// encapsulated parallel-loop subroutine per color sweep. It is the
// reference the generated spf-gen version must match bit for bit.
func runSPF(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunSPF("RB-SOR", core.SPF, cfg, func(rt *spf.Runtime) apputil.Program {
		tm := rt.Tmk()
		u := tmk.Alloc[float32](tm, "u", n*n)
		sweeps := make([]int, 2)
		for color := 0; color < 2; color++ {
			color := color
			sweeps[color] = rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
				if lo >= hi {
					return
				}
				v := u.Read((lo-1)*n, (hi+1)*n)
				u.Write(lo*n, hi*n)
				cnt := sweepRows(v, n, lo, hi, color, lo-1)
				rt.Advance(apputil.Cost(cnt, cfg.App.SORUpdate))
			})
		}
		if rt.IsMaster() {
			w := u.Write(0, n*n)
			apputil.EdgesOne(w, n)
		}
		return apputil.Program{
			Iterate: func(k int) {
				rt.ParallelDo(sweeps[0], 1, n-1, spf.Block)
				rt.ParallelDo(sweeps[1], 1, n-1, spf.Block)
			},
			Checksum: func() float64 {
				return apputil.Sum64(u.Read(0, n*n))
			},
		}
	})
}

// newBand allocates a message-passing processor's storage — its BLOCK
// of whole rows and a one-row halo, edges at one — and returns it with
// the owned interior rows [clo,chi).
func newBand(me, nprocs, n int) (u *xhpf.Local[float32], clo, chi int) {
	u = xhpf.NewLocal[float32]("u", me, xhpf.BlockBounds(nprocs, n), n, 1)
	slo, shi := u.Stored()
	apputil.EdgesOneRows(u.Data(), n, slo, shi)
	rlo, rhi := u.Block()
	return u, max(rlo, 1), min(rhi, n-1)
}

// runXHPF is the hand-written rendition of the XHPF output: BLOCK row
// distribution, a halo exchange before each color sweep (the stencil
// reads the neighbor's boundary rows, freshly updated by the previous
// sweep), and runtime synchronization at the loop boundaries. The
// generated xhpf-gen version must match it bit for bit.
func runXHPF(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunXHPF("RB-SOR", core.XHPF, cfg, func(x *xhpf.XHPF) apputil.Program {
		u, clo, chi := newBand(x.ID(), x.NProcs(), n)
		off, _ := u.Stored()
		return apputil.Program{
			Iterate: func(k int) {
				for color := 0; color < 2; color++ {
					xhpf.ExchangeHalo(x, u, 1)
					if chi > clo {
						cnt := sweepRows(u.Data(), n, clo, chi, color, off)
						x.Advance(apputil.Cost(cnt, cfg.App.SORUpdate))
					}
					x.LoopSync()
				}
			},
			Checksum: func() float64 {
				return apputil.Sum64(pvm.GatherUntracked(x.PVM(), 90, u.Owned())...)
			},
		}
	})
}

// runPVM is the hand-coded message-passing version: each color sweep
// is preceded by a direct boundary-row exchange with the neighbors —
// the message doubles as the synchronization.
func runPVM(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunPVM("RB-SOR", core.PVMe, cfg, func(pv *pvm.PVM) apputil.Program {
		me := pv.ID()
		u, clo, chi := newBand(me, pv.NProcs(), n)
		off, _ := u.Stored()
		rlo, rhi := u.Block()
		lower, upper := u.Neighbors()
		return apputil.Program{
			Iterate: func(k int) {
				for color := 0; color < 2; color++ {
					up, down := 70+2*color, 71+2*color
					if lower {
						pvm.Send(pv, me-1, up, u.Rows(rlo, rlo+1))
					}
					if upper {
						pvm.Send(pv, me+1, down, u.Rows(rhi-1, rhi))
					}
					if lower {
						pvm.Recv(pv, me-1, down, u.Rows(rlo-1, rlo))
					}
					if upper {
						pvm.Recv(pv, me+1, up, u.Rows(rhi, rhi+1))
					}
					if chi > clo {
						cnt := sweepRows(u.Data(), n, clo, chi, color, off)
						pv.Advance(apputil.Cost(cnt, cfg.App.SORUpdate))
					}
				}
			},
			Checksum: func() float64 {
				return apputil.Sum64(pvm.GatherUntracked(pv, 90, u.Owned())...)
			},
		}
	})
}
