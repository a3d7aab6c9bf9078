// Package fft3d implements the paper's 3-D FFT application (§5.4), the
// kernel of the NAS FT benchmark: each iteration reinitializes an
// n1×n2×n3 double-precision complex array, applies an inverse 3-D FFT
// (1-D FFTs along each dimension), normalizes, and computes a checksum
// over 1024 sampled elements.
//
// The first two FFT dimensions are local under a block partition of the
// n3 planes (partition A). The n3-point FFTs need a different partition
// (block on n2 — partition B), so a transpose moves 7/8 of the array
// across the machine into a separate transposed array. In the
// shared-memory versions the transpose is implicit — partition-B owners
// simply fault in the partition-A pages one at a time, which is why the
// paper measures about 30× more messages than hand-coded message
// passing and why the §5.4 data-aggregation hand optimization (one
// request per writer for the whole strided section set) nearly closes
// the gap (speedup 2.65 → 5.05 vs PVMe's 5.12).
//
// Layout: index (i3*n2 + i2)*n1 + i1 in x (i1 contiguous); the
// parallel versions' transposed array xt holds (i2*n3 + i3)*n1 + i1 so
// partition-B work is contiguous and local. seq has no xt: it
// transforms the third dimension in place in x.
package fft3d

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

type app struct{}

// New returns the 3-D FFT application.
func New() core.App { return app{} }

func (app) Name() string { return "3-D FFT" }

func (app) Config(scale core.Scale, procs int) core.Config {
	switch scale {
	case core.SmallScale:
		return core.Config{Procs: procs, N1: 16, N2: 16, N3: 8, Iters: 2, Warmup: 1}
	case core.MidScale:
		return core.Config{Procs: procs, N1: 64, N2: 64, N3: 32, Iters: 3, Warmup: 1}
	default:
		return core.Config{Procs: procs, N1: 128, N2: 128, N3: 64, Iters: 5, Warmup: 1}
	}
}

func (app) Versions() []core.Version {
	return []core.Version{core.Seq, core.SPF, core.Tmk, core.XHPF, core.PVMe, core.SPFOpt}
}

func (a app) Run(v core.Version, cfg core.Config) (core.Result, error) {
	if !fft.Pow2(cfg.N1) || !fft.Pow2(cfg.N2) || !fft.Pow2(cfg.N3) {
		return core.Result{}, fmt.Errorf("fft3d: dimensions must be powers of two")
	}
	switch v {
	case core.Seq:
		return runSeq(cfg)
	case core.Tmk:
		return runTmk(cfg)
	case core.SPF, core.SPFOpt:
		return runSPF(cfg, v)
	case core.XHPF:
		return runXHPF(cfg)
	case core.PVMe:
		return runPVM(cfg)
	}
	return core.Result{}, fmt.Errorf("fft3d: unsupported version %q", v)
}

func hash32(x uint32) uint32 {
	x = x*2654435761 + 104729
	x ^= x >> 13
	x *= 2246822519
	x ^= x >> 16
	return x
}

// initValue is the deterministic per-iteration initializer.
func initValue(i, iter int) complex128 {
	h1 := hash32(uint32(i*5 + iter*7919))
	h2 := hash32(uint32(i*11 + iter*104729 + 3))
	return complex(float64(h1%2048)/2048-0.5, float64(h2%2048)/2048-0.5)
}

// checksumIndices samples 1024 xt-linear indices, as the NAS kernel sums
// 1024 elements.
func checksumIndices(total int) []int {
	n := 1024
	if total < 4096 {
		n = 64
	}
	idx := make([]int, n)
	for k := range idx {
		idx[k] = (k*131 + 17) % total
	}
	return idx
}

// kernel bundles the per-version compute pieces so every version charges
// identical virtual costs and performs bitwise-identical arithmetic.
type kernel struct {
	cfg     core.Config
	n1      int
	n2      int
	n3      int
	scratch []complex128
}

func newKernel(cfg core.Config) *kernel {
	m := cfg.N2
	if cfg.N3 > m {
		m = cfg.N3
	}
	return &kernel{cfg: cfg, n1: cfg.N1, n2: cfg.N2, n3: cfg.N3, scratch: make([]complex128, m)}
}

// The kernels below work on planes [p3lo,p3hi) of x or i2 rows
// [b2lo,b2hi) of xt, global numbers both. The slice they are handed
// begins at plane (row) off: zero for a whole array, the first plane
// (row) of a DSM view.

// initPlanes fills planes [p3lo,p3hi) of x for iteration iter.
func (kn *kernel) initPlanes(x []complex128, p3lo, p3hi, off, iter int) int {
	plane := kn.n2 * kn.n1
	base := p3lo * plane
	out := x[(p3lo-off)*plane : (p3hi-off)*plane]
	for k := range out {
		out[k] = initValue(base+k, iter)
	}
	return len(out)
}

// fft1Planes performs n1-point inverse FFTs on every (i3,i2) pencil of
// planes [p3lo,p3hi). Returns butterfly count.
func (kn *kernel) fft1Planes(x []complex128, p3lo, p3hi, off int) int {
	b := 0
	for i3 := p3lo; i3 < p3hi; i3++ {
		for i2 := 0; i2 < kn.n2; i2++ {
			at := ((i3-off)*kn.n2 + i2) * kn.n1
			fft.Inverse(x[at : at+kn.n1])
			b += fft.Butterflies(kn.n1)
		}
	}
	return b
}

// fft2Planes performs n2-point inverse FFTs along i2 (stride n1) for
// planes [p3lo,p3hi).
func (kn *kernel) fft2Planes(x []complex128, p3lo, p3hi, off int) int {
	b := 0
	s := kn.scratch[:kn.n2]
	for i3 := p3lo; i3 < p3hi; i3++ {
		plane := (i3 - off) * kn.n2 * kn.n1
		for i1 := 0; i1 < kn.n1; i1++ {
			for i2 := 0; i2 < kn.n2; i2++ {
				s[i2] = x[plane+i2*kn.n1+i1]
			}
			fft.Inverse(s)
			for i2 := 0; i2 < kn.n2; i2++ {
				x[plane+i2*kn.n1+i1] = s[i2]
			}
			b += fft.Butterflies(kn.n2)
		}
	}
	return b
}

// transposeRows copies x into xt layout for i2 rows [b2lo,b2hi): element
// x[(i3*n2+i2)*n1+i1] → xt[(i2*n3+i3)*n1+i1]. secs[i3] holds rows
// [b2lo,b2hi) of plane i3 of x — all a partition-B owner reads of it.
// Returns elements moved.
func (kn *kernel) transposeRows(xt []complex128, secs [][]complex128, b2lo, b2hi, off int) int {
	moved := 0
	for i2 := b2lo; i2 < b2hi; i2++ {
		src := (i2 - b2lo) * kn.n1
		for i3, sec := range secs {
			dst := ((i2-off)*kn.n3 + i3) * kn.n1
			copy(xt[dst:dst+kn.n1], sec[src:src+kn.n1])
			moved += kn.n1
		}
	}
	return moved
}

// fft3Rows performs n3-point inverse FFTs (stride n1 in xt) for i2 rows
// [b2lo,b2hi).
func (kn *kernel) fft3Rows(xt []complex128, b2lo, b2hi, off int) int {
	b := 0
	s := kn.scratch[:kn.n3]
	for i2 := b2lo; i2 < b2hi; i2++ {
		row := (i2 - off) * kn.n3 * kn.n1
		for i1 := 0; i1 < kn.n1; i1++ {
			for i3 := 0; i3 < kn.n3; i3++ {
				s[i3] = xt[row+i3*kn.n1+i1]
			}
			fft.Inverse(s)
			for i3 := 0; i3 < kn.n3; i3++ {
				xt[row+i3*kn.n1+i1] = s[i3]
			}
			b += fft.Butterflies(kn.n3)
		}
	}
	return b
}

// normalizeRows scales xt rows [b2lo,b2hi) by 1/(n1*n2*n3).
func (kn *kernel) normalizeRows(xt []complex128, b2lo, b2hi, off int) int {
	inv := complex(1/float64(kn.n1*kn.n2*kn.n3), 0)
	rows := xt[(b2lo-off)*kn.n3*kn.n1 : (b2hi-off)*kn.n3*kn.n1]
	for i := range rows {
		rows[i] *= inv
	}
	return len(rows)
}

// checksumRows sums the sampled elements owned by rows [b2lo,b2hi).
func (kn *kernel) checksumRows(xt []complex128, idx []int, b2lo, b2hi, off int) (complex128, int) {
	lo := b2lo * kn.n3 * kn.n1
	hi := b2hi * kn.n3 * kn.n1
	base := off * kn.n3 * kn.n1
	var s complex128
	touched := 0
	for _, i := range idx {
		if i >= lo && i < hi {
			s += xt[i-base]
			touched++
		}
	}
	return s, touched
}

// fft3InPlace performs the n3-point inverse FFTs along i3 (stride
// n2*n1) in place in the whole array x, as NAS FT's serial code does:
// the butterflies fft3Rows applies to the transposed copy, on the same
// values. Returns butterfly count.
func (kn *kernel) fft3InPlace(x []complex128) int {
	b := 0
	s := kn.scratch[:kn.n3]
	stride := kn.n2 * kn.n1
	for p := 0; p < stride; p++ {
		for i3 := range s {
			s[i3] = x[i3*stride+p]
		}
		fft.Inverse(s)
		for i3 := range s {
			x[i3*stride+p] = s[i3]
		}
		b += fft.Butterflies(kn.n3)
	}
	return b
}

// checksumInPlace is checksumRows over every row of xt, read from x:
// idx's elements in idx order, each xt index (i2*n3+i3)*n1+i1 read at
// x's (i3*n2+i2)*n1+i1.
func (kn *kernel) checksumInPlace(x []complex128, idx []int) (complex128, int) {
	var s complex128
	for _, i := range idx {
		i1, r := i%kn.n1, i/kn.n1
		i2, i3 := r/kn.n3, r%kn.n3
		s += x[(i3*kn.n2+i2)*kn.n1+i1]
	}
	return s, len(idx)
}

// chargeFFT converts butterfly and touch counts into virtual time.
func chargeFFT(adv func(sim.Time), cfg core.Config, butterflies, touches int) {
	adv(apputil.Cost(butterflies, cfg.App.FFTButterfly) + apputil.Cost(touches, cfg.App.FFTTouch))
}

func sumComplex(s complex128) float64 { return real(s) + 2*imag(s) }

// runSeq is the sequential version. It holds one array: the third
// dimension's FFTs run in place in x (fft3InPlace), with no transposed
// copy, but it still charges the transpose's n1*n2*n3 touches, as the
// parallel versions' kernels do.
func runSeq(cfg core.Config) (core.Result, error) {
	kn := newKernel(cfg)
	total := kn.n1 * kn.n2 * kn.n3
	idx := checksumIndices(total)
	return apputil.RunSeq("3-D FFT", cfg, func(tm *tmk.Tmk) apputil.Program {
		x := make([]complex128, total)
		var sum complex128
		return apputil.Program{
			Iterate: func(k int) {
				touches := kn.initPlanes(x, 0, kn.n3, 0, k)
				b := kn.fft1Planes(x, 0, kn.n3, 0)
				b += kn.fft2Planes(x, 0, kn.n3, 0)
				touches += total // the transpose the parallel versions make
				b += kn.fft3InPlace(x)
				// All of x: the scale does not depend on the layout.
				touches += kn.normalizeRows(x, 0, kn.n2, 0)
				s, t := kn.checksumInPlace(x, idx)
				sum = s
				touches += t
				chargeFFT(tm.Advance, cfg, b, touches)
			},
			Checksum: func() float64 { return sumComplex(sum) },
		}
	})
}

// runTmk is the hand-coded TreadMarks version: two shared arrays, two
// barriers per iteration (between the partition-A and partition-B
// phases, and at end of iteration after the checksum). The transpose is
// implicit: partition-B owners fault in the partition-A pages they read.
func runTmk(cfg core.Config) (core.Result, error) {
	kn := newKernel(cfg)
	total := kn.n1 * kn.n2 * kn.n3
	idx := checksumIndices(total)
	return apputil.RunTmk("3-D FFT", core.Tmk, cfg, func(tm *tmk.Tmk) apputil.Program {
		me, nprocs := tm.ID(), tm.NProcs()
		x := tmk.Alloc[complex128](tm, "x", total)
		xt := tmk.Alloc[complex128](tm, "xt", total)
		// One (re,im) slot per node: the lock serializes the shared-page
		// writes as in the paper, but each node only touches its own slot
		// and node 0 folds them in node order, so the reduced value does
		// not depend on lock-grant order (which varies with the coherence
		// protocol's timing; the cross-protocol equivalence tests rely on
		// this).
		partial := tmk.Alloc[float64](tm, "csum", 2*nprocs)
		p3lo, p3hi := apputil.BlockOf(me, nprocs, kn.n3)
		b2lo, b2hi := apputil.BlockOf(me, nprocs, kn.n2)
		secs := make([][]complex128, kn.n3)
		var sum complex128
		return apputil.Program{
			Iterate: func(k int) {
				if me == 0 {
					// Reset the checksum slots; the previous iteration's
					// writes are ordered before this one by the
					// end-of-iteration barrier.
					clear(partial.Write(0, 2*nprocs))
				}
				wx := x.Write(p3lo*kn.n2*kn.n1, p3hi*kn.n2*kn.n1)
				touches := kn.initPlanes(wx, p3lo, p3hi, p3lo, k)
				b := kn.fft1Planes(wx, p3lo, p3hi, p3lo)
				b += kn.fft2Planes(wx, p3lo, p3hi, p3lo)
				tm.Barrier() // partition A done; partition B may read
				// Implicit transpose: fault the needed x sections page by
				// page, then copy them into the local xt rows.
				readTransposeSections(secs, x, kn, b2lo, b2hi, false)
				wxt := xt.Write(b2lo*kn.n3*kn.n1, b2hi*kn.n3*kn.n1)
				touches += kn.transposeRows(wxt, secs, b2lo, b2hi, b2lo)
				b += kn.fft3Rows(wxt, b2lo, b2hi, b2lo)
				touches += kn.normalizeRows(wxt, b2lo, b2hi, b2lo)
				s, t := kn.checksumRows(wxt, idx, b2lo, b2hi, b2lo)
				touches += t
				tm.AcquireLock(3)
				w := partial.Write(2*me, 2*me+2)
				w[0], w[1] = real(s), imag(s)
				tm.ReleaseLock(3)
				chargeFFT(tm.Advance, cfg, b, touches)
				tm.Barrier() // end of iteration, after the checksum
				if me == 0 {
					g := partial.Read(0, 2*nprocs)
					sum = 0
					for q := 0; q < nprocs; q++ {
						sum += complex(g[2*q], g[2*q+1])
					}
				}
			},
			Checksum: func() float64 { return sumComplex(sum) },
		}
	})
}

// readTransposeSections validates (and thereby fetches) the x sections a
// partition-B owner reads — for every plane, the i2 rows [b2lo,b2hi) —
// and then points secs[i3] at a view of plane i3's. aggregated selects
// the §5.4 enhanced-interface optimization.
func readTransposeSections(secs [][]complex128, x *tmk.Region[complex128], kn *kernel, b2lo, b2hi int, aggregated bool) {
	ranges := make([][2]int, kn.n3)
	for i3 := range ranges {
		ranges[i3] = [2]int{(i3*kn.n2 + b2lo) * kn.n1, (i3*kn.n2 + b2hi) * kn.n1}
	}
	if aggregated {
		x.ReadAggregatedRanges(ranges)
	} else {
		for _, rg := range ranges {
			x.Read(rg[0], rg[1])
		}
	}
	// Views last: every page is valid now, so these Reads cost nothing
	// and none of them can move a page under an earlier one's view.
	for i3, rg := range ranges {
		secs[i3] = x.Read(rg[0], rg[1])
	}
}

// runSPF is the compiler-generated version: six parallel loops per
// iteration (init, three FFT dimensions, normalize, checksum), each a
// fork-join dispatch; the checksum is a lock-based reduction pair.
// spf-opt is the §5.4 hand optimization, data aggregation.
func runSPF(cfg core.Config, v core.Version) (core.Result, error) {
	kn := newKernel(cfg)
	total := kn.n1 * kn.n2 * kn.n3
	idx := checksumIndices(total)
	aggregated := v == core.SPFOpt
	return apputil.RunSPF("3-D FFT", v, cfg, func(rt *spf.Runtime) apputil.Program {
		tm := rt.Tmk()
		x := tmk.Alloc[complex128](tm, "x", total)
		xt := tmk.Alloc[complex128](tm, "xt", total)
		add := func(a, b float64) float64 { return a + b }
		reSum := spf.NewReduction(rt, "re", add)
		imSum := spf.NewReduction(rt, "im", add)
		secs := make([][]complex128, kn.n3)

		initLoop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			w := x.Write(lo*kn.n2*kn.n1, hi*kn.n2*kn.n1)
			t := kn.initPlanes(w, lo, hi, lo, int(args[0]))
			chargeFFT(rt.Advance, cfg, 0, t)
		})
		fft1Loop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			w := x.Write(lo*kn.n2*kn.n1, hi*kn.n2*kn.n1)
			chargeFFT(rt.Advance, cfg, kn.fft1Planes(w, lo, hi, lo), 0)
		})
		fft2Loop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			w := x.Write(lo*kn.n2*kn.n1, hi*kn.n2*kn.n1)
			chargeFFT(rt.Advance, cfg, kn.fft2Planes(w, lo, hi, lo), 0)
		})
		fft3Loop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			readTransposeSections(secs, x, kn, lo, hi, aggregated)
			w := xt.Write(lo*kn.n3*kn.n1, hi*kn.n3*kn.n1)
			t := kn.transposeRows(w, secs, lo, hi, lo)
			chargeFFT(rt.Advance, cfg, kn.fft3Rows(w, lo, hi, lo), t)
		})
		normLoop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			w := xt.Write(lo*kn.n3*kn.n1, hi*kn.n3*kn.n1)
			chargeFFT(rt.Advance, cfg, 0, kn.normalizeRows(w, lo, hi, lo))
		})
		csumLoop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			g := xt.Read(lo*kn.n3*kn.n1, hi*kn.n3*kn.n1)
			s, t := kn.checksumRows(g, idx, lo, hi, lo)
			chargeFFT(rt.Advance, cfg, 0, t)
			reSum.Combine(rt, real(s))
			imSum.Combine(rt, imag(s))
		})
		return apputil.Program{
			Iterate: func(k int) {
				rt.ParallelDo(initLoop, 0, kn.n3, spf.Block, int64(k))
				rt.ParallelDo(fft1Loop, 0, kn.n3, spf.Block)
				rt.ParallelDo(fft2Loop, 0, kn.n3, spf.Block)
				rt.ParallelDo(fft3Loop, 0, kn.n2, spf.Block)
				rt.ParallelDo(normLoop, 0, kn.n2, spf.Block)
				reSum.Reset(0)
				imSum.Reset(0)
				rt.ParallelDo(csumLoop, 0, kn.n2, spf.Block)
			},
			Checksum: func() float64 {
				return sumComplex(complex(reSum.Value(), imSum.Value()))
			},
		}
	})
}

// runXHPF is the compiler-generated message-passing version: the
// transpose is generated as unaggregated section sends — one message per
// (plane, i2-row) — which is the paper's ~30× message blow-up relative
// to hand-coded message passing, plus a sync per parallel loop.
func runXHPF(cfg core.Config) (core.Result, error) {
	kn := newKernel(cfg)
	total := kn.n1 * kn.n2 * kn.n3
	idx := checksumIndices(total)
	return apputil.RunXHPF("3-D FFT", core.XHPF, cfg, func(x *xhpf.XHPF) apputil.Program {
		me, nprocs := x.ID(), x.NProcs()
		p3lo, p3hi := apputil.BlockOf(me, nprocs, kn.n3)
		b2lo, b2hi := apputil.BlockOf(me, nprocs, kn.n2)
		// xs holds this processor's planes [p3lo,p3hi), xt its i2 rows
		// [b2lo,b2hi): everything else arrives by message.
		xs := make([]complex128, (p3hi-p3lo)*kn.n2*kn.n1)
		xt := make([]complex128, (b2hi-b2lo)*kn.n3*kn.n1)
		var sum complex128
		return apputil.Program{
			Iterate: func(k int) {
				touches := kn.initPlanes(xs, p3lo, p3hi, p3lo, k)
				x.LoopSync()
				b := kn.fft1Planes(xs, p3lo, p3hi, p3lo)
				x.LoopSync()
				b += kn.fft2Planes(xs, p3lo, p3hi, p3lo)
				x.LoopSync()
				// Generated transpose: per-destination per-plane per-row
				// sections.
				sectionsFor := func(q int) [][]complex128 {
					qlo, qhi := apputil.BlockOf(q, nprocs, kn.n2)
					var secs [][]complex128
					for i3 := p3lo; i3 < p3hi; i3++ {
						for i2 := qlo; i2 < qhi; i2++ {
							off := ((i3-p3lo)*kn.n2 + i2) * kn.n1
							secs = append(secs, xs[off:off+kn.n1])
						}
					}
					return secs
				}
				placeFor := func(q int) [][]complex128 {
					qlo, qhi := apputil.BlockOf(q, nprocs, kn.n3)
					var secs [][]complex128
					for i3 := qlo; i3 < qhi; i3++ {
						for i2 := b2lo; i2 < b2hi; i2++ {
							dst := ((i2-b2lo)*kn.n3 + i3) * kn.n1
							secs = append(secs, xt[dst:dst+kn.n1])
						}
					}
					return secs
				}
				xhpf.SectionAllToAll(x, kn.n1, sectionsFor, placeFor)
				// Local part of the transpose.
				for i3 := p3lo; i3 < p3hi; i3++ {
					for i2 := b2lo; i2 < b2hi; i2++ {
						src := ((i3-p3lo)*kn.n2 + i2) * kn.n1
						dst := ((i2-b2lo)*kn.n3 + i3) * kn.n1
						copy(xt[dst:dst+kn.n1], xs[src:src+kn.n1])
						touches += kn.n1
					}
				}
				b += kn.fft3Rows(xt, b2lo, b2hi, b2lo)
				x.LoopSync()
				touches += kn.normalizeRows(xt, b2lo, b2hi, b2lo)
				x.LoopSync()
				s, t := kn.checksumRows(xt, idx, b2lo, b2hi, b2lo)
				touches += t
				parts := xhpf.AllReduceSum(x, []float64{real(s), imag(s)})
				sum = complex(parts[0], parts[1])
				x.LoopSync()
				chargeFFT(x.Advance, cfg, b, touches)
			},
			Checksum: func() float64 {
				if me != 0 {
					return 0
				}
				return sumComplex(sum)
			},
		}
	})
}

// runPVM is the hand-coded message-passing version: the transpose is a
// fully aggregated all-to-all — one packed message per destination.
func runPVM(cfg core.Config) (core.Result, error) {
	kn := newKernel(cfg)
	total := kn.n1 * kn.n2 * kn.n3
	idx := checksumIndices(total)
	return apputil.RunPVM("3-D FFT", core.PVMe, cfg, func(pv *pvm.PVM) apputil.Program {
		me, nprocs := pv.ID(), pv.NProcs()
		p3lo, p3hi := apputil.BlockOf(me, nprocs, kn.n3)
		b2lo, b2hi := apputil.BlockOf(me, nprocs, kn.n2)
		xs := make([]complex128, (p3hi-p3lo)*kn.n2*kn.n1)
		xt := make([]complex128, (b2hi-b2lo)*kn.n3*kn.n1)
		var sum complex128
		return apputil.Program{
			Iterate: func(k int) {
				touches := kn.initPlanes(xs, p3lo, p3hi, p3lo, k)
				b := kn.fft1Planes(xs, p3lo, p3hi, p3lo)
				b += kn.fft2Planes(xs, p3lo, p3hi, p3lo)
				// Aggregated all-to-all: one packed message per peer, packed
				// straight into a transmit buffer, and one receive buffer at
				// a time; both go round through the free list.
				for q := 0; q < nprocs; q++ {
					if q == me {
						continue
					}
					qlo, qhi := apputil.BlockOf(q, nprocs, kn.n2)
					buf := pvm.NewBuffer[complex128](pv, (p3hi-p3lo)*(qhi-qlo)*kn.n1)
					vals, at := buf.Vals(), 0
					for i3 := p3lo; i3 < p3hi; i3++ {
						for i2 := qlo; i2 < qhi; i2++ {
							off := ((i3-p3lo)*kn.n2 + i2) * kn.n1
							at += copy(vals[at:], xs[off:off+kn.n1])
						}
					}
					pvm.Transmit(pv, q, 600, buf, 0, len(vals))
					buf.Release()
				}
				for q := 0; q < nprocs; q++ {
					if q == me {
						continue
					}
					qlo, qhi := apputil.BlockOf(q, nprocs, kn.n3)
					buf := pvm.NewBuffer[complex128](pv, (qhi-qlo)*(b2hi-b2lo)*kn.n1)
					vals, at := buf.Vals(), 0
					pvm.Recv(pv, q, 600, vals)
					for i3 := qlo; i3 < qhi; i3++ {
						for i2 := b2lo; i2 < b2hi; i2++ {
							dst := ((i2-b2lo)*kn.n3 + i3) * kn.n1
							copy(xt[dst:dst+kn.n1], vals[at:at+kn.n1])
							at += kn.n1
							touches += kn.n1
						}
					}
					buf.Release()
				}
				for i3 := p3lo; i3 < p3hi; i3++ {
					for i2 := b2lo; i2 < b2hi; i2++ {
						src := ((i3-p3lo)*kn.n2 + i2) * kn.n1
						dst := ((i2-b2lo)*kn.n3 + i3) * kn.n1
						copy(xt[dst:dst+kn.n1], xs[src:src+kn.n1])
						touches += kn.n1
					}
				}
				b += kn.fft3Rows(xt, b2lo, b2hi, b2lo)
				touches += kn.normalizeRows(xt, b2lo, b2hi, b2lo)
				s, t := kn.checksumRows(xt, idx, b2lo, b2hi, b2lo)
				touches += t
				parts := pvm.ReduceSum(pv, 0, 610, []float64{real(s), imag(s)})
				if me == 0 {
					sum = complex(parts[0], parts[1])
				}
				chargeFFT(pv.Advance, cfg, b, touches)
			},
			Checksum: func() float64 {
				if me != 0 {
					return 0
				}
				return sumComplex(sum)
			},
		}
	})
}
