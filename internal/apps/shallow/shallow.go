// Package shallow implements the paper's Shallow application (§5.2): the
// shallow-water benchmark from the National Center for Atmospheric
// Research. Thirteen equal-sized single-precision arrays in wrap-around
// format (u, v, p; uold, vold, pold; unew, vnew, pnew; cu, cv, z, h) are
// advanced through three steps per iteration — flux/vorticity (cu, cv,
// z, h), time step (unew, vnew, pnew), and time smoothing — each
// followed by wrap-around copying of the modified arrays.
//
// The wrap-around copying has two halves with very different parallel
// structure (the §5.2 analysis):
//
//   - the contiguous edge (one memcpy of a whole boundary line) is
//     executed sequentially — on the owner in the hand-coded versions,
//     but on the *master* in the SPF fork-join model, which is the extra
//     communication that separates SPF from hand-coded TreadMarks;
//   - the strided edge crosses every processor's partition and is
//     parallelized (each processor wraps its own rows).
//
// Orientation: the paper's Fortran arrays are column-major and
// partitioned by columns; this Go port is row-major and partitioned by
// rows. The paper's "edge column copy" (contiguous, sequential) is our
// edge-row copy; its parallel "edge row copy" is our per-row column
// wrap.
package shallow

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

type app struct{}

// New returns the Shallow application.
func New() core.App { return app{} }

func (app) Name() string { return "Shallow" }

func (app) Config(scale core.Scale, procs int) core.Config {
	switch scale {
	case core.SmallScale:
		return core.Config{Procs: procs, N1: 64, Iters: 4, Warmup: 1}
	case core.MidScale:
		return core.Config{Procs: procs, N1: 512, Iters: 10, Warmup: 1}
	default:
		return core.Config{Procs: procs, N1: 1024, Iters: 50, Warmup: 1}
	}
}

func (app) Versions() []core.Version {
	return []core.Version{core.Seq, core.SPF, core.Tmk, core.XHPF, core.PVMe, core.SPFOpt}
}

func (a app) Run(v core.Version, cfg core.Config) (core.Result, error) {
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
	return core.Result{}, fmt.Errorf("shallow: unsupported version %q", v)
}

// Model constants (after the NCAR benchmark).
const (
	dtc    = 90.0
	dxc    = 100000.0
	alpha  = 0.001
	fsdx   = 4.0 / dxc
	fsdy   = 4.0 / dxc
	tdts8  = dtc / 8.0 * 2
	tdtsdx = dtc / dxc * 2
	tdtsdy = dtc / dxc * 2
)

// state bundles the 13 arrays so all versions share the kernels. The
// kernels take global rows; r0 is the global row the arrays begin at —
// zero for whole arrays, the first stored row of a message-passing
// processor's bands, the first row of the views a DSM phase validated.
type state struct {
	n, r0            int
	u, v, p          []float32
	uold, vold, pold []float32
	unew, vnew, pnew []float32
	cu, cv, z, h     []float32
}

// init sets the initial velocities of rows [rlo,rhi) from a smooth
// stream function; deterministic across all versions. Row i's angle a
// and column j's angle b come from one formula, so one sine and one
// cosine table of n entries replace four libm calls per point; each
// point's products are the same float64 operations in the same order.
func (s *state) init(rlo, rhi int) {
	n := s.n
	sin, cos := make([]float64, n), make([]float64, n)
	for k := range sin {
		a := 2 * math.Pi * float64(k) / float64(n-1)
		sin[k], cos[k] = math.Sin(a), math.Cos(a)
	}
	for i := rlo; i < rhi; i++ {
		sa, ca := sin[i], cos[i]
		c := (i - s.r0) * n
		u, v, p := s.u[c:][:n], s.v[c:][:n], s.p[c:][:n]
		for j := range u {
			u[j] = float32(sa * cos[j] * 10)
			v[j] = float32(-ca * sin[j] * 10)
			p[j] = float32(50000 + 1000*ca*cos[j])
		}
		copy(s.uold[c:][:n], u)
		copy(s.vold[c:][:n], v)
		copy(s.pold[c:][:n], p)
	}
}

// The three loops below read and write each row through sub-slices of
// one length (suffix 0: the point itself, 1: its right neighbor, n: the
// point below, n1: below right), so their inner loops carry no bounds
// checks, and load each input once per point (suffixes r, d, dr) rather
// than after every store. The expressions are the NCAR benchmark's, in
// float32, and every version must reproduce them bit for bit: do not
// reassociate.

// loop100 computes cu, cv, z, h for rows [rlo,rhi) (rows run 0..n-2);
// reads rows i and i+1 of p, u, v.
func (s *state) loop100(rlo, rhi int) int {
	n := s.n
	w := n - 1
	pts := 0
	for i := rlo; i < rhi; i++ {
		c := (i - s.r0) * n
		cu, cv, z, h := s.cu[c:][:w], s.cv[c:][:w], s.z[c:][:w], s.h[c:][:w]
		p0, p1, pn, pn1 := s.p[c:][:w], s.p[c+1:][:w], s.p[c+n:][:w], s.p[c+n+1:][:w]
		u0, un, un1 := s.u[c:][:w], s.u[c+n:][:w], s.u[c+n+1:][:w]
		v0, v1, vn1 := s.v[c:][:w], s.v[c+1:][:w], s.v[c+n+1:][:w]
		for j := range cu {
			p, pr, pd, pdr := p0[j], p1[j], pn[j], pn1[j]
			u, ud, udr := u0[j], un[j], un1[j]
			v, vr, vdr := v0[j], v1[j], vn1[j]
			cu[j] = 0.5 * (pd + p) * ud
			cv[j] = 0.5 * (pr + p) * vr
			z[j] = (fsdx*(vdr-vr) - fsdy*(udr-ud)) /
				(p + pd + pdr + pr)
			h[j] = p + 0.25*(ud*ud+u*u+
				vr*vr+v*v)
		}
		pts += w
	}
	return pts
}

// loop200 computes unew, vnew, pnew for rows [rlo,rhi); reads rows i and
// i+1 of cu, cv, z, h plus row i of the old arrays.
func (s *state) loop200(rlo, rhi int) int {
	n := s.n
	w := n - 1
	pts := 0
	for i := rlo; i < rhi; i++ {
		c := (i - s.r0) * n
		unew, vnew, pnew := s.unew[c:][:w], s.vnew[c:][:w], s.pnew[c:][:w]
		uold, vold, pold := s.uold[c:][:w], s.vold[c:][:w], s.pold[c:][:w]
		z0, z1, zn := s.z[c:][:w], s.z[c+1:][:w], s.z[c+n:][:w]
		h0, h1, hn := s.h[c:][:w], s.h[c+1:][:w], s.h[c+n:][:w]
		cu0, cu1, cun, cun1 := s.cu[c:][:w], s.cu[c+1:][:w], s.cu[c+n:][:w], s.cu[c+n+1:][:w]
		cv0, cv1, cvn, cvn1 := s.cv[c:][:w], s.cv[c+1:][:w], s.cv[c+n:][:w], s.cv[c+n+1:][:w]
		for j := range unew {
			z, zr, zd := z0[j], z1[j], zn[j]
			h, hr, hd := h0[j], h1[j], hn[j]
			cu, cur, cud, cudr := cu0[j], cu1[j], cun[j], cun1[j]
			cv, cvr, cvd, cvdr := cv0[j], cv1[j], cvn[j], cvn1[j]
			unew[j] = uold[j] + tdts8*(zr+z)*
				(cvdr+cvr+cv+cvd) - tdtsdx*(hd-h)
			vnew[j] = vold[j] - tdts8*(zd+z)*
				(cudr+cur+cu+cud) - tdtsdy*(hr-h)
			pnew[j] = pold[j] - tdtsdx*(cud-cu) - tdtsdy*(cvr-cv)
		}
		pts += w
	}
	return pts
}

// loop300 applies time smoothing to rows [rlo,rhi) — pointwise, no
// halo, so the rows are one contiguous run.
func (s *state) loop300(rlo, rhi int) int {
	if rhi <= rlo {
		return 0
	}
	lo, pts := (rlo-s.r0)*s.n, (rhi-rlo)*s.n
	u, v, p := s.u[lo:][:pts], s.v[lo:][:pts], s.p[lo:][:pts]
	uold, vold, pold := s.uold[lo:][:pts], s.vold[lo:][:pts], s.pold[lo:][:pts]
	unew, vnew, pnew := s.unew[lo:][:pts], s.vnew[lo:][:pts], s.pnew[lo:][:pts]
	for c := range u {
		uold[c] = u[c] + alpha*(unew[c]-2*u[c]+uold[c])
		vold[c] = v[c] + alpha*(vnew[c]-2*v[c]+vold[c])
		pold[c] = p[c] + alpha*(pnew[c]-2*p[c]+pold[c])
		u[c] = unew[c]
		v[c] = vnew[c]
		p[c] = pnew[c]
	}
	return pts
}

// wrapCols wraps the strided edge (column n-1 ← column 0) for rows
// [rlo,rhi) of the given arrays — the parallelized half of the
// wrap-around copying. The rows count from the arrays' first row.
func wrapCols(arrs [][]float32, n, rlo, rhi int) int {
	pts := 0
	for _, a := range arrs {
		for i := rlo; i < rhi; i++ {
			a[i*n+n-1] = a[i*n]
			pts++
		}
	}
	return pts
}

// wrapRow wraps the contiguous edge (row n-1 ← row 0) — the sequential
// half.
func wrapRow(a []float32, n int) int {
	copy(a[(n-1)*n:n*n], a[0:n])
	return n
}

func (s *state) checksum() float64 {
	return apputil.Sum64(s.p) + 2*apputil.Sum64(s.u) + 4*apputil.Sum64(s.v)
}

// groupA and groupB are the arrays wrapped after loops 100 and 200.
func (s *state) groupA() [][]float32 { return [][]float32{s.cu, s.cv, s.z, s.h} }
func (s *state) groupB() [][]float32 { return [][]float32{s.unew, s.vnew, s.pnew} }

func runSeq(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunSeq("Shallow", cfg, func(tm *tmk.Tmk) apputil.Program {
		s := newLocalState(n)
		s.init(0, n)
		return apputil.Program{
			Iterate: func(k int) {
				pts := s.loop100(0, n-1)
				w := wrapCols(s.groupA(), n, 0, n-1)
				for _, a := range s.groupA() {
					w += wrapRow(a, n)
				}
				tm.Advance(apputil.Cost(pts*4, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
				pts = s.loop200(0, n-1)
				w = wrapCols(s.groupB(), n, 0, n-1)
				for _, a := range s.groupB() {
					w += wrapRow(a, n)
				}
				tm.Advance(apputil.Cost(pts*3, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
				pts = s.loop300(0, n)
				tm.Advance(apputil.Cost(pts*6, cfg.App.ShallowCopy))
			},
			Checksum: func() float64 { return s.checksum() },
		}
	})
}

// arrayNames names the 13 arrays in the order of slots.
var arrayNames = []string{"u", "v", "p", "uold", "vold", "pold", "unew", "vnew", "pnew", "cu", "cv", "z", "h"}

// slots returns the 13 array fields, for the constructors to fill.
func (s *state) slots() []*[]float32 {
	return []*[]float32{&s.u, &s.v, &s.p, &s.uold, &s.vold, &s.pold,
		&s.unew, &s.vnew, &s.pnew, &s.cu, &s.cv, &s.z, &s.h}
}

func newLocalState(n int) *state {
	s := &state{n: n}
	for _, f := range s.slots() {
		*f = make([]float32, n*n)
	}
	return s
}

// sharedState allocates the 13 arrays as shared regions and exposes the
// same kernels through a state whose slices are views of them: each
// phase's validation points the slices of the arrays it touches at the
// rows it validated, all beginning at one row, which becomes r0.
type sharedState struct {
	*state
	arrs map[string]sharedArray
}

// sharedArray is one array's region and the state slice its views go to.
type sharedArray struct {
	reg  *tmk.Region[float32]
	view *[]float32
}

func newSharedState(tm *tmk.Tmk, n int) *sharedState {
	ss := &sharedState{state: &state{n: n}, arrs: map[string]sharedArray{}}
	for i, f := range ss.slots() {
		ss.arrs[arrayNames[i]] = sharedArray{tmk.Alloc[float32](tm, "shallow."+arrayNames[i], n*n), f}
	}
	return ss
}

// read validates rows [rlo,rhi) of the named arrays for reading (agg:
// through the enhanced interface) and points their slices at the views.
func (ss *sharedState) read(names []string, rlo, rhi int, agg bool) {
	n := ss.n
	for _, name := range names {
		a := ss.arrs[name]
		if agg {
			*a.view = a.reg.ReadAggregated(rlo*n, rhi*n)
		} else {
			*a.view = a.reg.Read(rlo*n, rhi*n)
		}
	}
}

// write is read for writing.
func (ss *sharedState) write(names []string, rlo, rhi int) {
	n := ss.n
	for _, name := range names {
		a := ss.arrs[name]
		*a.view = a.reg.Write(rlo*n, rhi*n)
	}
}

// validatePhase1 performs the access checks for loop100 over rows
// [rlo,rhi): read p,u,v rows [rlo,rhi+1), write cu,cv,z,h rows [rlo,rhi).
func (ss *sharedState) validatePhase1(rlo, rhi int, agg bool) {
	ss.r0 = rlo
	ss.read(puvNames, rlo, rhi+1, agg)
	ss.write(groupANames, rlo, rhi)
}

// validatePhase2: read cu,cv,z,h rows [rlo,rhi+1) and old rows [rlo,rhi);
// write new rows [rlo,rhi).
func (ss *sharedState) validatePhase2(rlo, rhi int, agg bool) {
	ss.r0 = rlo
	ss.read(groupANames, rlo, rhi+1, agg)
	ss.read(oldNames, rlo, rhi, false)
	ss.write(groupBNames, rlo, rhi)
}

// validatePhase3: pointwise over rows [rlo,rhi): read new, read+write
// u,v,p and old.
func (ss *sharedState) validatePhase3(rlo, rhi int) {
	ss.r0 = rlo
	ss.read(groupBNames, rlo, rhi, false)
	ss.write(stateNames, rlo, rhi)
}

// wrapRowShared performs the contiguous edge copy through the DSM: read
// row 0, write row n-1. Executed by one processor (the owner in the
// hand-coded version, the master under SPF).
func (ss *sharedState) wrapRowShared(names []string) int {
	n := ss.n
	w := 0
	for _, name := range names {
		r := ss.arrs[name].reg
		r.Read(0, n)
		dst := r.Write((n-1)*n, n*n)
		// Row 0's view after both validations: in a region of a few
		// pages the Write can move the pages holding row 0.
		copy(dst, r.Read(0, n))
		w += n
	}
	return w
}

// initShared is processor 0's initialization of the whole grid.
func (ss *sharedState) initShared() {
	ss.r0 = 0
	ss.write(stateNames, 0, ss.n)
	ss.init(0, ss.n)
}

// checksumShared reads all of p, u, v (on processor 0, after the run).
func (ss *sharedState) checksumShared() float64 {
	ss.read(puvNames, 0, ss.n, false)
	return ss.checksum()
}

// The arrays the phases validate, in the order they validate them.
// groupA and groupB are also what is wrapped after loops 100 and 200.
var (
	puvNames    = []string{"p", "u", "v"}
	oldNames    = []string{"uold", "vold", "pold"}
	stateNames  = []string{"u", "v", "p", "uold", "vold", "pold"}
	groupANames = []string{"cu", "cv", "z", "h"}
	groupBNames = []string{"unew", "vnew", "pnew"}
)

func runTmk(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunTmk("Shallow", core.Tmk, cfg, func(tm *tmk.Tmk) apputil.Program {
		me, nprocs := tm.ID(), tm.NProcs()
		ss := newSharedState(tm, n)
		rlo, rhi := apputil.BlockOf(me, nprocs, n-1)
		isLast := me == nprocs-1
		if me == 0 {
			ss.initShared()
		}
		tm.Barrier()
		adv := func(d sim.Time) { tm.Advance(d) }
		return apputil.Program{
			Iterate: func(k int) {
				stepTmk(ss, adv, cfg, rlo, rhi, isLast, tm.Barrier)
			},
			Checksum: ss.checksumShared,
		}
	})
}

// stepTmk is one hand-coded TreadMarks iteration: three barriers. The
// contiguous edge copy runs on the owner of the last row at the *start*
// of the phase that consumes it — after the barrier that orders it
// against processor 0's writes of row 0 (the hand coder's owner-computes
// placement the paper credits the Tmk version with).
func stepTmk(ss *sharedState, adv func(sim.Time), cfg core.Config, rlo, rhi int, isLast bool, barrier func()) {
	n := ss.n
	if rhi > rlo {
		ss.validatePhase1(rlo, rhi, false)
		pts := ss.loop100(rlo, rhi)
		w := wrapCols(ss.groupA(), n, 0, rhi-rlo)
		adv(apputil.Cost(pts*4, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	barrier()
	if isLast {
		w := ss.wrapRowShared(groupANames)
		adv(apputil.Cost(w, cfg.App.ShallowCopy))
	}
	if rhi > rlo {
		ss.validatePhase2(rlo, rhi, false)
		pts := ss.loop200(rlo, rhi)
		w := wrapCols(ss.groupB(), n, 0, rhi-rlo)
		adv(apputil.Cost(pts*3, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	barrier()
	hi3 := rhi
	if isLast {
		w := ss.wrapRowShared(groupBNames)
		adv(apputil.Cost(w, cfg.App.ShallowCopy))
		hi3 = n // smoothing covers the wrap row too
	}
	if hi3 > rlo {
		ss.validatePhase3(rlo, hi3)
		pts := ss.loop300(rlo, hi3)
		adv(apputil.Cost(pts*6, cfg.App.ShallowCopy))
	}
	barrier()
}

func runSPF(cfg core.Config, v core.Version) (core.Result, error) {
	n := cfg.N1
	merged := v == core.SPFOpt
	return apputil.RunSPF("Shallow", v, cfg, func(rt *spf.Runtime) apputil.Program {
		tm := rt.Tmk()
		ss := newSharedState(tm, n)
		adv := func(d sim.Time) { rt.Advance(d) }

		phase1 := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			ss.validatePhase1(lo, hi, merged)
			pts := ss.loop100(lo, hi)
			adv(apputil.Cost(pts*4, cfg.App.ShallowUpdate))
			if merged { // §5.2: the wrap loop is merged into the main loop
				ss.write(groupANames, lo, hi) // typically writable already, from the producing loop
				w := wrapCols(ss.groupA(), n, 0, hi-lo)
				adv(apputil.Cost(w, cfg.App.ShallowCopy))
			}
		})
		wrapA := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			ss.write(groupANames, lo, hi) // typically writable already, from the producing loop
			w := wrapCols(ss.groupA(), n, 0, hi-lo)
			adv(apputil.Cost(w, cfg.App.ShallowCopy))
		})
		phase2 := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			ss.validatePhase2(lo, hi, merged)
			pts := ss.loop200(lo, hi)
			adv(apputil.Cost(pts*3, cfg.App.ShallowUpdate))
			if merged {
				ss.write(groupBNames, lo, hi) // typically writable already, from the producing loop
				w := wrapCols(ss.groupB(), n, 0, hi-lo)
				adv(apputil.Cost(w, cfg.App.ShallowCopy))
			}
		})
		wrapB := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			ss.write(groupBNames, lo, hi) // typically writable already, from the producing loop
			w := wrapCols(ss.groupB(), n, 0, hi-lo)
			adv(apputil.Cost(w, cfg.App.ShallowCopy))
		})
		phase3 := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			ss.validatePhase3(lo, hi)
			pts := ss.loop300(lo, hi)
			adv(apputil.Cost(pts*6, cfg.App.ShallowCopy))
		})

		if rt.IsMaster() {
			ss.initShared()
		}
		return apputil.Program{
			Iterate: func(k int) {
				rt.ParallelDo(phase1, 0, n-1, spf.Block)
				if !merged {
					rt.ParallelDo(wrapA, 0, n-1, spf.Block)
				}
				// Sequential part: the contiguous edge copy on the master
				// (regardless of the owner-computes rule — §5.2's penalty).
				w := ss.wrapRowShared(groupANames)
				adv(apputil.Cost(w, cfg.App.ShallowCopy))
				rt.ParallelDo(phase2, 0, n-1, spf.Block)
				if !merged {
					rt.ParallelDo(wrapB, 0, n-1, spf.Block)
				}
				w = ss.wrapRowShared(groupBNames)
				adv(apputil.Cost(w, cfg.App.ShallowCopy))
				rt.ParallelDo(phase3, 0, n, spf.Block)
			},
			Checksum: ss.checksumShared,
		}
	})
}

// bandState is a message-passing processor's storage behind the same
// kernels: of each of the 13 arrays, its BLOCK of the n-1 computed rows
// — the last processor's extended by the wrap row n-1 — and a one-row
// halo (the forward stencils read row i+1).
type bandState struct {
	*state
	puv, grpA, grpB []*xhpf.Local[float32] // the arrays that communicate: p, u, v and the two wrap groups
	rlo, rhi        int                    // computed rows
	isLast          bool
}

func newBandState(me, nprocs, n int) *bandState {
	bounds := xhpf.BlockBounds(nprocs, n-1)
	bounds[nprocs] = n
	bs := &bandState{state: &state{n: n}, isLast: me == nprocs-1}
	loc := map[string]*xhpf.Local[float32]{}
	for i, f := range bs.slots() {
		l := xhpf.NewLocal[float32]("shallow."+arrayNames[i], me, bounds, n, 1)
		loc[arrayNames[i]] = l
		*f = l.Data()
	}
	pick := func(names ...string) []*xhpf.Local[float32] {
		out := make([]*xhpf.Local[float32], len(names))
		for i, name := range names {
			out[i] = loc[name]
		}
		return out
	}
	bs.puv, bs.grpA, bs.grpB = pick("p", "u", "v"), pick(groupANames...), pick(groupBNames...)
	bs.r0, _ = bs.puv[0].Stored()
	bs.init(bs.puv[0].Block())
	bs.rlo, bs.rhi = apputil.BlockOf(me, nprocs, n-1)
	return bs
}

// haloDown fills row rhi of each array from the next processor, which
// owns it (under XHPF, generated from the analyzable forward stencil).
func (bs *bandState) haloDown(pv *pvm.PVM, tag int, arrs []*xhpf.Local[float32]) {
	me, last := pv.ID(), pv.NProcs()-1
	if bs.rhi <= bs.rlo {
		return
	}
	for t, a := range arrs {
		if me > 0 {
			pvm.Send(pv, me-1, tag+t, a.Rows(bs.rlo, bs.rlo+1))
		}
		if me < last {
			pvm.Recv(pv, me+1, tag+t, a.Rows(bs.rhi, bs.rhi+1))
		}
	}
}

// wrapRowComm is the contiguous edge copy (row n-1 ← row 0) across
// processors: processor 0 sends row 0 to the owner of row n-1, which
// installs it. It returns the elements this processor copied.
func (bs *bandState) wrapRowComm(pv *pvm.PVM, tag int, arrs []*xhpf.Local[float32]) int {
	n, last := bs.n, pv.NProcs()-1
	w := 0
	for t, a := range arrs {
		switch {
		case last == 0:
			copy(a.Rows(n-1, n), a.Rows(0, 1))
		case pv.ID() == 0:
			pvm.Send(pv, last, tag+t, a.Rows(0, 1))
		case bs.isLast:
			pvm.Recv(pv, 0, tag+t, a.Rows(n-1, n))
		}
		if bs.isLast {
			w += n
		}
	}
	return w
}

// step is one message-passing iteration. tag is the version's message
// tag base; sync is the loop-boundary synchronization the XHPF compiler
// generates and the hand-coded PVMe program does without (its data
// messages carry it).
func (bs *bandState) step(pv *pvm.PVM, cfg core.Config, tag int, sync func()) {
	n, rlo, rhi := bs.n, bs.rlo, bs.rhi
	bs.haloDown(pv, tag, bs.puv)
	if rhi > rlo {
		pts := bs.loop100(rlo, rhi)
		w := wrapCols(bs.groupA(), n, rlo-bs.r0, rhi-bs.r0)
		pv.Advance(apputil.Cost(pts*4, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	pv.Advance(apputil.Cost(bs.wrapRowComm(pv, tag+20, bs.grpA), cfg.App.ShallowCopy))
	sync()
	bs.haloDown(pv, tag, bs.grpA)
	if rhi > rlo {
		pts := bs.loop200(rlo, rhi)
		w := wrapCols(bs.groupB(), n, rlo-bs.r0, rhi-bs.r0)
		pv.Advance(apputil.Cost(pts*3, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	pv.Advance(apputil.Cost(bs.wrapRowComm(pv, tag+20, bs.grpB), cfg.App.ShallowCopy))
	sync()
	hi3 := rhi
	if bs.isLast {
		hi3 = n // smoothing covers the wrap row too
	}
	if hi3 > rlo {
		pts := bs.loop300(rlo, hi3)
		pv.Advance(apputil.Cost(pts*6, cfg.App.ShallowCopy))
	}
	sync()
}

// gatherChecksum is state.checksum over the owned row blocks, gathered
// untracked on task 0 (zero elsewhere).
func (bs *bandState) gatherChecksum(pv *pvm.PVM) float64 {
	sum := func(a *xhpf.Local[float32]) float64 {
		return apputil.Sum64(pvm.GatherUntracked(pv, 780, a.Owned())...)
	}
	return sum(bs.puv[0]) + 2*sum(bs.puv[1]) + 4*sum(bs.puv[2])
}

func runXHPF(cfg core.Config) (core.Result, error) {
	return apputil.RunXHPF("Shallow", core.XHPF, cfg, func(x *xhpf.XHPF) apputil.Program {
		bs := newBandState(x.ID(), x.NProcs(), cfg.N1)
		return apputil.Program{
			Iterate:  func(k int) { bs.step(x.PVM(), cfg, 700, x.LoopSync) },
			Checksum: func() float64 { return bs.gatherChecksum(x.PVM()) },
		}
	})
}

func runPVM(cfg core.Config) (core.Result, error) {
	return apputil.RunPVM("Shallow", core.PVMe, cfg, func(pv *pvm.PVM) apputil.Program {
		bs := newBandState(pv.ID(), pv.NProcs(), cfg.N1)
		return apputil.Program{
			Iterate:  func(k int) { bs.step(pv, cfg, 740, func() {}) },
			Checksum: func() float64 { return bs.gatherChecksum(pv) },
		}
	})
}
