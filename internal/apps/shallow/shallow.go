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
//
// The grid is staggered. With NCAR's (I,J) as row I-1, column J-1 and
// m = M = N = n-1, NCAR's loops compute, for i and j in 0..m-1,
//
//	loop 100  CU(i+1,j)   = ½(P(i+1,j)+P(i,j))·U(i+1,j)
//	          CV(i,j+1)   = ½(P(i,j+1)+P(i,j))·V(i,j+1)
//	          Z(i+1,j+1)  = (fsdx(V(i+1,j+1)-V(i,j+1)) - fsdy(U(i+1,j+1)-U(i+1,j)))
//	                        / (P(i,j)+P(i+1,j)+P(i+1,j+1)+P(i,j+1))
//	          H(i,j)      = P(i,j) + ¼(U(i+1,j)²+U(i,j)²+V(i,j+1)²+V(i,j)²)
//	loop 200  UNEW(i+1,j) = UOLD(i+1,j) + tdts8(Z(i+1,j+1)+Z(i+1,j))
//	                        ·(CV(i+1,j+1)+CV(i,j+1)+CV(i,j)+CV(i+1,j)) - tdtsdx(H(i+1,j)-H(i,j))
//	          VNEW(i,j+1) = VOLD(i,j+1) - tdts8(Z(i+1,j+1)+Z(i,j+1))
//	                        ·(CU(i+1,j+1)+CU(i,j+1)+CU(i,j)+CU(i+1,j)) - tdtsdy(H(i,j+1)-H(i,j))
//	          PNEW(i,j)   = POLD(i,j) - tdtsdx(CU(i+1,j)-CU(i,j)) - tdtsdy(CV(i,j+1)-CV(i,j))
//	loop 300  XOLD = X + α(XNEW - 2X + XOLD), X = XNEW, for X in U, V, P, at every point
//
// so the u-like arrays (u, uold, unew, cu, and z) sit half a cell along
// the rows: rows 1..m are computed and row 0 is the periodic copy of
// row m. The v-like arrays (v, vold, vnew, cv, and z) sit half a cell
// along the columns: columns 1..m are computed and column 0 is the copy
// of column m. The others are computed on rows and columns 0..m-1 and
// copied into row and column m. Each loop below computes whole rows of
// its outputs, row r of every array that has one there (owner
// computes), and reads row r-1 of an input that does not sit along the
// rows and row r+1 of one that does (inputRows). That is the halo every
// version moves: up for p, v, cv and h, down for u, z and cu. The
// contiguous wrap moves row m to row 0 for the u-like arrays and row 0
// to row m for the rest. An earlier port indexed cu, cv and z one row
// or column off from these positions and read h, uold and the pressure
// divergence unshifted, which centred the wave operator off the grid
// point; the scheme went non-finite near step 50.
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

// The 13 arrays, in the order of arrayNames and slots.
const (
	aU = iota
	aV
	aP
	aUold
	aVold
	aPold
	aUnew
	aVnew
	aPnew
	aCU
	aCV
	aZ
	aH
	numArrays
)

var arrayNames = [numArrays]string{"u", "v", "p", "uold", "vold", "pold", "unew", "vnew", "pnew", "cu", "cv", "z", "h"}

// alongRows and alongCols place each array on the staggered grid (see
// the package doc): half a cell along the rows, the columns, or both.
var (
	alongRows = [numArrays]bool{aU: true, aUold: true, aUnew: true, aCU: true, aZ: true}
	alongCols = [numArrays]bool{aV: true, aVold: true, aVnew: true, aCV: true, aZ: true}
)

// The arrays each phase touches. groupA and groupB are also what is
// wrapped after loops 100 and 200.
var (
	puv    = []int{aP, aU, aV}
	olds   = []int{aUold, aVold, aPold}
	states = []int{aU, aV, aP, aUold, aVold, aPold}
	groupA = []int{aCU, aCV, aZ, aH}
	groupB = []int{aUnew, aVnew, aPnew}
)

// band is the rows [r0, r0+len(data)/n) of one n-column array that a
// version holds: the whole array, the rows a DSM phase validated, or a
// message-passing processor's stored rows. It is addressed by global
// row.
type band struct {
	data  []float32
	r0, n int
}

// at returns the w elements of row r from column c on (a run may go on
// into the rows after r). The kernels cut every row they touch this
// way, into sub-slices of one length, so their inner loops carry no
// bounds checks.
func (b band) at(r, c, w int) []float32 { return b.data[(r-b.r0)*b.n+c:][:w] }

// state bundles the 13 arrays so all versions share the kernels.
type state struct {
	n                int
	u, v, p          band
	uold, vold, pold band
	unew, vnew, pnew band
	cu, cv, z, h     band
}

// slots returns the 13 arrays, in arrayNames order, for the
// constructors to fill and the wraps to index.
func (s *state) slots() [numArrays]*band {
	return [numArrays]*band{&s.u, &s.v, &s.p, &s.uold, &s.vold, &s.pold,
		&s.unew, &s.vnew, &s.pnew, &s.cu, &s.cv, &s.z, &s.h}
}

// computed returns the rows of [lo,hi) on which the loops compute array
// k: rows 1..m of an array along the rows, rows 0..m-1 of the others.
func (s *state) computed(k, lo, hi int) (int, int) {
	if alongRows[k] {
		return max(lo, 1), hi
	}
	return lo, min(hi, s.n-1)
}

// inputRows returns the rows of input array k that loop 100 or 200
// reads to compute rows [lo,hi): one more below for an array along the
// rows, one more above for the others.
func (s *state) inputRows(k, lo, hi int) (int, int) {
	if alongRows[k] {
		return lo, min(hi+1, s.n)
	}
	return max(lo-1, 0), hi
}

// wrapEnds returns the source and destination rows of array k's
// contiguous wrap: row m to row 0 for an array along the rows, row 0 to
// row m for the others.
func (s *state) wrapEnds(k int) (src, dst int) {
	if alongRows[k] {
		return s.n - 1, 0
	}
	return 0, s.n - 1
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
		u, v, p := s.u.at(i, 0, n), s.v.at(i, 0, n), s.p.at(i, 0, n)
		for j := range u {
			u[j] = float32(sa * cos[j] * 10)
			v[j] = float32(-ca * sin[j] * 10)
			p[j] = float32(50000 + 1000*ca*cos[j])
		}
		copy(s.uold.at(i, 0, n), u)
		copy(s.vold.at(i, 0, n), v)
		copy(s.pold.at(i, 0, n), p)
	}
}

// The three loops below compute rows [lo,hi) of their outputs (rows run
// 0..n-1; see computed and inputRows) and return the elements they
// store. Suffix a names a row above (r-1), b a row below (r+1), 1 the
// column to the right. The expressions are NCAR's, in float32, and
// every version must reproduce them bit for bit: do not reassociate.

// loop100 computes cu, cv, z, h from p, u, v.
func (s *state) loop100(lo, hi int) int {
	w := s.n - 1
	pts := 0
	for r := lo; r < hi; r++ {
		p, p1 := s.p.at(r, 0, w), s.p.at(r, 1, w)
		u, u1 := s.u.at(r, 0, w), s.u.at(r, 1, w)
		v, v1 := s.v.at(r, 0, w), s.v.at(r, 1, w)
		if r > 0 { // cu and z sit along the rows
			pa, pa1, va1 := s.p.at(r-1, 0, w), s.p.at(r-1, 1, w), s.v.at(r-1, 1, w)
			cu, z1 := s.cu.at(r, 0, w), s.z.at(r, 1, w)
			for j := range cu {
				cu[j] = 0.5 * (p[j] + pa[j]) * u[j]
				z1[j] = (fsdx*(v1[j]-va1[j]) - fsdy*(u1[j]-u[j])) /
					(pa[j] + p[j] + p1[j] + pa1[j])
			}
			pts += 2 * w
		}
		if r < w { // cv and h do not
			ub := s.u.at(r+1, 0, w)
			cv1, h := s.cv.at(r, 1, w), s.h.at(r, 0, w)
			for j := range h {
				cv1[j] = 0.5 * (p1[j] + p[j]) * v1[j]
				h[j] = p[j] + 0.25*(ub[j]*ub[j]+u[j]*u[j]+
					v1[j]*v1[j]+v[j]*v[j])
			}
			pts += 2 * w
		}
	}
	return pts
}

// loop200 computes unew, vnew, pnew from cu, cv, z, h and the old
// arrays.
func (s *state) loop200(lo, hi int) int {
	w := s.n - 1
	pts := 0
	for r := lo; r < hi; r++ {
		z, z1 := s.z.at(r, 0, w), s.z.at(r, 1, w)
		cv, cv1 := s.cv.at(r, 0, w), s.cv.at(r, 1, w)
		h, h1 := s.h.at(r, 0, w), s.h.at(r, 1, w)
		if r > 0 { // unew sits along the rows
			cva, cva1, ha := s.cv.at(r-1, 0, w), s.cv.at(r-1, 1, w), s.h.at(r-1, 0, w)
			unew, uold := s.unew.at(r, 0, w), s.uold.at(r, 0, w)
			for j := range unew {
				unew[j] = uold[j] + tdts8*(z1[j]+z[j])*
					(cv1[j]+cva1[j]+cva[j]+cv[j]) - tdtsdx*(h[j]-ha[j])
			}
			pts += w
		}
		if r < w { // vnew and pnew do not
			zb1, cu, cu1 := s.z.at(r+1, 1, w), s.cu.at(r, 0, w), s.cu.at(r, 1, w)
			cub, cub1 := s.cu.at(r+1, 0, w), s.cu.at(r+1, 1, w)
			vnew1, vold1 := s.vnew.at(r, 1, w), s.vold.at(r, 1, w)
			pnew, pold := s.pnew.at(r, 0, w), s.pold.at(r, 0, w)
			for j := range pnew {
				vnew1[j] = vold1[j] - tdts8*(zb1[j]+z1[j])*
					(cub1[j]+cu1[j]+cu[j]+cub[j]) - tdtsdy*(h1[j]-h[j])
				pnew[j] = pold[j] - tdtsdx*(cub[j]-cu[j]) - tdtsdy*(cv1[j]-cv[j])
			}
			pts += 2 * w
		}
	}
	return pts
}

// loop300 applies time smoothing to rows [lo,hi) — pointwise, no halo,
// so the rows are one contiguous run.
func (s *state) loop300(lo, hi int) int {
	if hi <= lo {
		return 0
	}
	pts := (hi - lo) * s.n
	u, v, p := s.u.at(lo, 0, pts), s.v.at(lo, 0, pts), s.p.at(lo, 0, pts)
	uold, vold, pold := s.uold.at(lo, 0, pts), s.vold.at(lo, 0, pts), s.pold.at(lo, 0, pts)
	unew, vnew, pnew := s.unew.at(lo, 0, pts), s.vnew.at(lo, 0, pts), s.pnew.at(lo, 0, pts)
	for c := range u {
		uold[c] = u[c] + alpha*(unew[c]-2*u[c]+uold[c])
		vold[c] = v[c] + alpha*(vnew[c]-2*v[c]+vold[c])
		pold[c] = p[c] + alpha*(pnew[c]-2*p[c]+pold[c])
		u[c] = unew[c]
		v[c] = vnew[c]
		p[c] = pnew[c]
	}
	return 6 * pts
}

// wrapCols wraps the strided edge of the arrays ks on their computed
// rows of [lo,hi) — column 0 ← column m for an array along the columns,
// column m ← column 0 for the others: the parallelized half of the
// wrap-around copying.
func (s *state) wrapCols(lo, hi int, ks ...int) int {
	m, slots := s.n-1, s.slots()
	pts := 0
	for _, k := range ks {
		rlo, rhi := s.computed(k, lo, hi)
		for r := rlo; r < rhi; r++ {
			row := slots[k].at(r, 0, m+1)
			if alongCols[k] {
				row[0] = row[m]
			} else {
				row[m] = row[0]
			}
			pts++
		}
	}
	return pts
}

// wrapRows wraps the contiguous edge of the arrays ks in place (see
// wrapEnds) — the sequential half.
func (s *state) wrapRows(ks ...int) int {
	slots := s.slots()
	for _, k := range ks {
		src, dst := s.wrapEnds(k)
		copy(slots[k].at(dst, 0, s.n), slots[k].at(src, 0, s.n))
	}
	return len(ks) * s.n
}

// step advances the whole grid one time step, NCAR's loops each
// followed by its periodic continuation, and returns the elements each
// phase computed (upd) and copied (cp).
func (s *state) step() (upd, cp [3]int) {
	n := s.n
	upd[0] = s.loop100(0, n)
	cp[0] = s.wrapCols(0, n, groupA...) + s.wrapRows(groupA...)
	upd[1] = s.loop200(0, n)
	cp[1] = s.wrapCols(0, n, groupB...) + s.wrapRows(groupB...)
	cp[2] = s.loop300(0, n)
	return upd, cp
}

func (s *state) checksum() float64 {
	return apputil.Sum64(s.p.data) + 2*apputil.Sum64(s.u.data) + 4*apputil.Sum64(s.v.data)
}

func runSeq(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunSeq("Shallow", cfg, func(tm *tmk.Tmk) apputil.Program {
		s := newLocalState(n)
		s.init(0, n)
		return apputil.Program{
			Iterate: func(k int) {
				upd, cp := s.step()
				for ph := range upd {
					tm.Advance(apputil.Cost(upd[ph], cfg.App.ShallowUpdate) + apputil.Cost(cp[ph], cfg.App.ShallowCopy))
				}
			},
			Checksum: func() float64 { return s.checksum() },
		}
	})
}

func newLocalState(n int) *state {
	s := &state{n: n}
	for _, b := range s.slots() {
		*b = band{make([]float32, n*n), 0, n}
	}
	return s
}

// sharedState allocates the 13 arrays as shared regions and exposes the
// same kernels through a state whose bands are views of them: each
// phase's validation points the band of every array it touches at the
// rows it validated.
type sharedState struct {
	*state
	regs [numArrays]*tmk.Region[float32]
}

func newSharedState(tm *tmk.Tmk, n int) *sharedState {
	ss := &sharedState{state: &state{n: n}}
	for k := range ss.regs {
		ss.regs[k] = tmk.Alloc[float32](tm, "shallow."+arrayNames[k], n*n)
	}
	return ss
}

// read validates rows [lo,hi) of the arrays ks for reading (agg:
// through the enhanced interface) and points their bands at the views.
func (ss *sharedState) read(lo, hi int, agg bool, ks ...int) {
	n, slots := ss.n, ss.slots()
	for _, k := range ks {
		if agg {
			*slots[k] = band{ss.regs[k].ReadAggregated(lo*n, hi*n), lo, n}
		} else {
			*slots[k] = band{ss.regs[k].Read(lo*n, hi*n), lo, n}
		}
	}
}

// write is read for writing.
func (ss *sharedState) write(lo, hi int, ks ...int) {
	n, slots := ss.n, ss.slots()
	for _, k := range ks {
		*slots[k] = band{ss.regs[k].Write(lo*n, hi*n), lo, n}
	}
}

// readInputs validates the rows of the input arrays ks that a loop
// computing rows [lo,hi) reads (inputRows).
func (ss *sharedState) readInputs(lo, hi int, agg bool, ks ...int) {
	for _, k := range ks {
		rlo, rhi := ss.inputRows(k, lo, hi)
		ss.read(rlo, rhi, agg, k)
	}
}

// writeOutputs validates for writing the rows of [lo,hi) on which the
// loops compute each of the arrays ks (computed).
func (ss *sharedState) writeOutputs(lo, hi int, ks ...int) {
	for _, k := range ks {
		if rlo, rhi := ss.computed(k, lo, hi); rlo < rhi {
			ss.write(rlo, rhi, k)
		}
	}
}

// validatePhase1 performs the access checks for loop100 over rows
// [lo,hi): read p, u, v with their halos, write cu, cv, z, h.
func (ss *sharedState) validatePhase1(lo, hi int, agg bool) {
	ss.readInputs(lo, hi, agg, puv...)
	ss.writeOutputs(lo, hi, groupA...)
}

// validatePhase2: read cu, cv, z, h with their halos and the old
// arrays' computed rows; write the new arrays.
func (ss *sharedState) validatePhase2(lo, hi int, agg bool) {
	ss.readInputs(lo, hi, agg, groupA...)
	for _, k := range olds {
		if rlo, rhi := ss.computed(k, lo, hi); rlo < rhi {
			ss.read(rlo, rhi, false, k)
		}
	}
	ss.writeOutputs(lo, hi, groupB...)
}

// validatePhase3: pointwise over rows [lo,hi): read new, read+write
// u, v, p and old.
func (ss *sharedState) validatePhase3(lo, hi int) {
	ss.read(lo, hi, false, groupB...)
	ss.write(lo, hi, states...)
}

// wrapRowShared performs the contiguous edge copy of the arrays ks
// through the DSM: read the source row, write the other end.
func (ss *sharedState) wrapRowShared(ks ...int) int {
	n := ss.n
	for _, k := range ks {
		r := ss.regs[k]
		src, dst := ss.wrapEnds(k)
		r.Read(src*n, src*n+n)
		to := r.Write(dst*n, dst*n+n)
		// The source row's view after both validations: in a region of
		// a few pages the Write can move the pages holding it.
		copy(to, r.Read(src*n, src*n+n))
	}
	return len(ks) * n
}

// initShared is processor 0's initialization of the whole grid.
func (ss *sharedState) initShared() {
	ss.write(0, ss.n, states...)
	ss.init(0, ss.n)
}

// checksumShared reads all of p, u, v (on processor 0, after the run).
func (ss *sharedState) checksumShared() float64 {
	ss.read(0, ss.n, false, puv...)
	return ss.checksum()
}

func runTmk(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunTmk("Shallow", core.Tmk, cfg, func(tm *tmk.Tmk) apputil.Program {
		me := tm.ID()
		ss := newSharedState(tm, n)
		lo, hi := apputil.BlockOf(me, tm.NProcs(), n)
		if me == 0 {
			ss.initShared()
		}
		tm.Barrier()
		adv := func(d sim.Time) { tm.Advance(d) }
		return apputil.Program{
			Iterate: func(k int) {
				stepTmk(ss, adv, cfg, lo, hi, tm.Barrier)
			},
			Checksum: ss.checksumShared,
		}
	})
}

// stepTmk is one hand-coded TreadMarks iteration over rows [lo,hi):
// three barriers. Each contiguous edge copy runs on the owner of its
// destination row at the *start* of the phase that consumes it, after
// the barrier that orders it against the source row's writer (the hand
// coder's owner-computes placement the paper credits the Tmk version
// with).
func stepTmk(ss *sharedState, adv func(sim.Time), cfg core.Config, lo, hi int, barrier func()) {
	// wrapOwned copies the edges whose destination row is this
	// processor's.
	wrapOwned := func(ks []int) {
		w := 0
		for _, k := range ks {
			if _, dst := ss.wrapEnds(k); lo <= dst && dst < hi {
				w += ss.wrapRowShared(k)
			}
		}
		adv(apputil.Cost(w, cfg.App.ShallowCopy))
	}
	if hi > lo {
		ss.validatePhase1(lo, hi, false)
		pts := ss.loop100(lo, hi)
		w := ss.wrapCols(lo, hi, groupA...)
		adv(apputil.Cost(pts, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	barrier()
	wrapOwned(groupA)
	if hi > lo {
		ss.validatePhase2(lo, hi, false)
		pts := ss.loop200(lo, hi)
		w := ss.wrapCols(lo, hi, groupB...)
		adv(apputil.Cost(pts, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	barrier()
	wrapOwned(groupB)
	if hi > lo {
		ss.validatePhase3(lo, hi)
		adv(apputil.Cost(ss.loop300(lo, hi), cfg.App.ShallowCopy))
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

		// mainLoop registers one of the two main loops; merged, the
		// wrap loop is folded into it (§5.2), its rows writable already.
		mainLoop := func(validate func(lo, hi int), loop func(lo, hi int) int, wrapped []int) int {
			return rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
				if hi <= lo {
					return
				}
				validate(lo, hi)
				adv(apputil.Cost(loop(lo, hi), cfg.App.ShallowUpdate))
				if merged {
					adv(apputil.Cost(ss.wrapCols(lo, hi, wrapped...), cfg.App.ShallowCopy))
				}
			})
		}
		// wrapLoop registers the separate parallel wrap loop of arrays ks.
		wrapLoop := func(ks []int) int {
			return rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
				if hi <= lo {
					return
				}
				ss.writeOutputs(lo, hi, ks...) // typically writable already, from the producing loop
				adv(apputil.Cost(ss.wrapCols(lo, hi, ks...), cfg.App.ShallowCopy))
			})
		}
		phase1 := mainLoop(func(lo, hi int) { ss.validatePhase1(lo, hi, merged) }, ss.loop100, groupA)
		wrapA := wrapLoop(groupA)
		phase2 := mainLoop(func(lo, hi int) { ss.validatePhase2(lo, hi, merged) }, ss.loop200, groupB)
		wrapB := wrapLoop(groupB)
		phase3 := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			if hi <= lo {
				return
			}
			ss.validatePhase3(lo, hi)
			adv(apputil.Cost(ss.loop300(lo, hi), cfg.App.ShallowCopy))
		})

		if rt.IsMaster() {
			ss.initShared()
		}
		return apputil.Program{
			Iterate: func(k int) {
				rt.ParallelDo(phase1, 0, n, spf.Block)
				if !merged {
					rt.ParallelDo(wrapA, 0, n, spf.Block)
				}
				// Sequential part: the contiguous edge copies on the
				// master (regardless of the owner-computes rule — §5.2's
				// penalty).
				adv(apputil.Cost(ss.wrapRowShared(groupA...), cfg.App.ShallowCopy))
				rt.ParallelDo(phase2, 0, n, spf.Block)
				if !merged {
					rt.ParallelDo(wrapB, 0, n, spf.Block)
				}
				adv(apputil.Cost(ss.wrapRowShared(groupB...), cfg.App.ShallowCopy))
				rt.ParallelDo(phase3, 0, n, spf.Block)
			},
			Checksum: ss.checksumShared,
		}
	})
}

// bandState is a message-passing processor's storage behind the same
// kernels: of each of the 13 arrays, its BLOCK of the n rows and a
// one-row halo on either side (see inputRows).
type bandState struct {
	*state
	loc    [numArrays]*xhpf.Local[float32]
	bounds []int // the blocks: processor q owns rows [bounds[q], bounds[q+1])
	lo, hi int   // owned rows
}

func newBandState(me, nprocs, n int) *bandState {
	bounds := xhpf.BlockBounds(nprocs, n)
	bs := &bandState{state: &state{n: n}, bounds: bounds}
	for k, b := range bs.slots() {
		bs.loc[k] = xhpf.NewLocal[float32]("shallow."+arrayNames[k], me, bounds, n, 1)
		r0, _ := bs.loc[k].Stored()
		*b = band{bs.loc[k].Data(), r0, n}
	}
	bs.lo, bs.hi = bs.loc[aP].Block()
	bs.init(bs.lo, bs.hi)
	return bs
}

// halo fills the rows of the arrays ks that the next loop reads beyond
// this processor's block (inputRows): the row below from the next
// processor for an array along the rows, the row above from the
// previous one for the others. Under XHPF it is generated from the
// analyzable stencil.
func (bs *bandState) halo(pv *pvm.PVM, tag int, ks ...int) {
	me, lo, hi := pv.ID(), bs.lo, bs.hi
	prev, next := bs.loc[aP].Neighbors()
	for t, k := range ks {
		a := bs.loc[k]
		if alongRows[k] && prev {
			pvm.Send(pv, me-1, tag+t, a.Rows(lo, lo+1))
		} else if !alongRows[k] && next {
			pvm.Send(pv, me+1, tag+t, a.Rows(hi-1, hi))
		}
	}
	for t, k := range ks {
		a := bs.loc[k]
		if alongRows[k] && next {
			pvm.Recv(pv, me+1, tag+t, a.Rows(hi, hi+1))
		} else if !alongRows[k] && prev {
			pvm.Recv(pv, me-1, tag+t, a.Rows(lo-1, lo))
		}
	}
}

// wrapRowComm is the contiguous edge copy of the arrays ks across
// processors: the owner of each source row (wrapEnds) sends it to the
// owner of the destination row, which installs it. It returns the
// elements this processor copied.
func (bs *bandState) wrapRowComm(pv *pvm.PVM, tag int, ks ...int) int {
	me := pv.ID()
	// owner is the processor whose block holds row r.
	owner := func(r int) int {
		q := 0
		for r >= bs.bounds[q+1] {
			q++
		}
		return q
	}
	w := 0
	for t, k := range ks {
		src, dst := bs.wrapEnds(k)
		a := bs.loc[k]
		switch from, to := owner(src), owner(dst); {
		case me == from && me == to:
			copy(a.Rows(dst, dst+1), a.Rows(src, src+1))
		case me == from:
			pvm.Send(pv, to, tag+t, a.Rows(src, src+1))
		}
	}
	for t, k := range ks {
		src, dst := bs.wrapEnds(k)
		if from, to := owner(src), owner(dst); me == to {
			if from != to {
				pvm.Recv(pv, from, tag+t, bs.loc[k].Rows(dst, dst+1))
			}
			w += bs.n
		}
	}
	return w
}

// step is one message-passing iteration. tag is the version's message
// tag base; sync is the loop-boundary synchronization the XHPF compiler
// generates and the hand-coded PVMe program does without (its data
// messages carry it).
func (bs *bandState) step(pv *pvm.PVM, cfg core.Config, tag int, sync func()) {
	lo, hi := bs.lo, bs.hi
	bs.halo(pv, tag, puv...)
	if hi > lo {
		pts := bs.loop100(lo, hi)
		w := bs.wrapCols(lo, hi, groupA...)
		pv.Advance(apputil.Cost(pts, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	pv.Advance(apputil.Cost(bs.wrapRowComm(pv, tag+20, groupA...), cfg.App.ShallowCopy))
	sync()
	bs.halo(pv, tag, groupA...)
	if hi > lo {
		pts := bs.loop200(lo, hi)
		w := bs.wrapCols(lo, hi, groupB...)
		pv.Advance(apputil.Cost(pts, cfg.App.ShallowUpdate) + apputil.Cost(w, cfg.App.ShallowCopy))
	}
	pv.Advance(apputil.Cost(bs.wrapRowComm(pv, tag+20, groupB...), cfg.App.ShallowCopy))
	sync()
	if hi > lo {
		pv.Advance(apputil.Cost(bs.loop300(lo, hi), cfg.App.ShallowCopy))
	}
	sync()
}

// gatherChecksum is state.checksum over the owned row blocks, gathered
// untracked on task 0 (zero elsewhere).
func (bs *bandState) gatherChecksum(pv *pvm.PVM) float64 {
	sum := func(k int) float64 {
		return apputil.Sum64(pvm.GatherUntracked(pv, 780, bs.loc[k].Owned())...)
	}
	return sum(aP) + 2*sum(aU) + 4*sum(aV)
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
