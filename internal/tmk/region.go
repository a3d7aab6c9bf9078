package tmk

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/proto"
)

// Elem is the set of element types shared arrays may hold. All are
// comparable, which is what twin/diff comparison needs.
type Elem interface {
	~float32 | ~float64 | ~int32 | ~int64 | ~complex64 | ~complex128
}

func sizeOfElem[T Elem]() int {
	var z T
	switch any(z).(type) {
	case float32, int32:
		return 4
	case float64, int64, complex64:
		return 8
	case complex128:
		return 16
	}
	panic("tmk: unsupported element type")
}

// delta is a diff payload: the runs of consecutive changed elements of
// one page, sent by pointer. vals holds every run's values back to
// back, and runs each run's (offset, length), in page order; the
// table lives in inline when two runs or fewer, as for most diffs. An
// empty diff is a nil *delta.
type delta[T Elem] struct {
	vals   []T
	runs   [][2]int32
	inline [2][2]int32
}

// Region is a shared array of T, padded to page boundaries as the SPF
// compiler pads shared arrays (§2.1). A node stores only the pages it
// has touched: frames maps each local page to the piece holding it, nil
// for a page never validated or written here, which is all zeros as
// every page is at allocation (DESIGN.md "Shared regions: views and
// frames").
type Region[T Elem] struct {
	nd       *node
	name     string
	n        int
	elemSize int
	epp      int // elements per page
	basePage int
	npages   int
	frames   []*piece[T] // per local page; nil = no frame, reads as zeros
	twins    [][]T       // per local page; nil = no twin
	bufs     *[][]T      // free page buffers, shared by every node's copy of the region
}

// piece is one contiguous run of framed pages: local pages [p0, p0+np)
// are data[:np*epp]. Anything data holds beyond that is zeroed reserve
// no view can reach, kept by a piece that has been growing upwards so
// that the next extension costs no copy (see join).
type piece[T Elem] struct {
	p0, np int
	data   []T
	joined bool // made by a join rather than by a first validation
}

// regionHandle is the untyped view the node keeps for protocol work.
type regionHandle interface {
	// extract encodes the diff of local page lp against its twin,
	// refreshes or drops the twin, and returns the typed payload with its
	// modeled wire size. keepTwin keeps accumulating (page still dirty).
	extract(lp int32, keepTwin bool) (payload any, bytes int)
	// lend is extract dropping the twin, with the payload's values in a
	// page buffer off the free list; giveBack returns that buffer.
	lend(lp int32) (payload any, bytes int)
	giveBack(payload any)
	// apply writes a diff payload into local page lp.
	apply(lp int32, payload any)
	// makeTwin snapshots local page lp.
	makeTwin(lp int32)
	// snapshotPage returns the full contents of local page lp.
	snapshotPage(lp int32) (payload any, bytes int)
	// installPage overwrites local page lp from a snapshotPage payload,
	// which it consumes.
	installPage(lp int32, payload any)
	// mergeRecs combines several diff payloads into one (GC squash).
	mergeRecs(payloads []any) (payload any, bytes int)
}

// Alloc creates a shared region of n elements of type T, identically on
// every process. It must be called in the same order with the same
// arguments on all processes. No page gets storage until it is touched.
func Alloc[T Elem](tm *Tmk, name string, n int) *Region[T] {
	nd := tm.nd
	es := sizeOfElem[T]()
	epp := model.PageSize / es
	npages := (n + epp - 1) / epp
	r := &Region[T]{
		nd:       nd,
		name:     name,
		n:        n,
		elemSize: es,
		epp:      epp,
		npages:   npages,
		frames:   make([]*piece[T], npages),
		twins:    make([][]T, npages),
	}
	rid := len(nd.regions)
	nd.regions = append(nd.regions, r)
	if rid == len(nd.sys.pageBufs) {
		nd.sys.pageBufs = append(nd.sys.pageBufs, new([][]T))
	}
	r.bufs = nd.sys.pageBufs[rid].(*[][]T)
	r.basePage = nd.addPages(rid, npages)
	return r
}

// Len returns the logical element count.
func (r *Region[T]) Len() int { return r.n }

// pageOf returns the global page id covering element i.
func (r *Region[T]) pageOf(i int) int { return r.basePage + i/r.epp }

// Pages returns the number of pages the region occupies.
func (r *Region[T]) Pages() int { return r.npages }

// ElemsPerPage returns the page capacity in elements.
func (r *Region[T]) ElemsPerPage() int { return r.epp }

// Read validates the pages covering [lo,hi) for reading and returns a
// view of exactly those elements: v[i-lo] is element i, and
// len(v) == cap(v) == hi-lo. The view aliases the node's storage — it
// sees later protocol updates of its pages — until a later validation
// of this region covers some of its pages together with pages outside
// the piece holding them; that join moves the pages and poisons the old
// storage. Take views after the validations of a phase, not before.
func (r *Region[T]) Read(lo, hi int) []T {
	return r.validate(lo, hi, false, false)
}

// Write is Read for writing: the pages are twinned for the
// multiple-writer protocol and the view may be stored through.
func (r *Region[T]) Write(lo, hi int) []T {
	return r.validate(lo, hi, true, false)
}

// ReadAggregated is Read through the enhanced interface (§5): all pages
// in the range are fetched with one request per remote writer instead of
// one request per page per writer.
func (r *Region[T]) ReadAggregated(lo, hi int) []T {
	return r.validate(lo, hi, false, true)
}

// WriteAggregated is Write with aggregated fetching.
func (r *Region[T]) WriteAggregated(lo, hi int) []T {
	return r.validate(lo, hi, true, true)
}

// ReadAggregatedRanges validates a set of element ranges for reading
// with a single request per remote peer across all of them — the
// enhanced interface's strided-region aggregation, used by the §5.4
// transpose optimization. Each range is [lo, hi). It returns nothing:
// follow it with a Read of each range, which finds the pages valid.
func (r *Region[T]) ReadAggregatedRanges(ranges [][2]int) {
	var gps []int32
	last := int32(-1)
	for _, rg := range ranges {
		r.checkRange(rg[0], rg[1])
		if rg[1] == rg[0] {
			continue
		}
		first, end := rg[0]/r.epp, (rg[1]-1)/r.epp
		r.span(first, end) // one piece per range, before its diffs arrive
		for gp := r.basePage + first; gp <= r.basePage+end; gp++ {
			if int32(gp) != last {
				gps = append(gps, int32(gp))
				last = int32(gp)
			}
		}
	}
	r.nd.prot.FetchAggregated(gps)
}

// checkRange panics unless elements [lo,hi) lie within the region's
// pages: beyond them pageOf names pages of the next region.
func (r *Region[T]) checkRange(lo, hi int) {
	if lo < 0 || hi > r.npages*r.epp || lo > hi {
		panic(fmt.Sprintf("tmk: %s: bad range [%d,%d)", r.name, lo, hi))
	}
}

func (r *Region[T]) validate(lo, hi int, write, aggregated bool) []T {
	r.checkRange(lo, hi)
	if hi == lo {
		return nil
	}
	first := lo / r.epp
	last := (hi - 1) / r.epp
	// Frame the range before the protocol repairs it, so incoming diffs
	// and pages land in the piece the view is cut from. Only validations
	// move pages, so pc stays current while the protocol runs.
	pc := r.span(first, last)
	if aggregated {
		gps := make([]int32, 0, last-first+1)
		for pg := first; pg <= last; pg++ {
			gps = append(gps, int32(r.basePage+pg))
		}
		r.nd.prot.FetchAggregated(gps)
	}
	for pg := first; pg <= last; pg++ {
		gp := int32(r.basePage + pg)
		if r.nd.prot.Invalid(gp) {
			r.nd.prot.Fault(gp)
		}
	}
	if write {
		for pg := first; pg <= last; pg++ {
			r.nd.prot.WriteTouch(int32(r.basePage + pg))
		}
	}
	return r.elems(pc, lo, hi)
}

// --- storage ---

// elems returns elements [lo,hi) of the region, all held by pc, with
// the capacity clipped so that nothing beyond them can be reached.
func (r *Region[T]) elems(pc *piece[T], lo, hi int) []T {
	base := pc.p0 * r.epp
	return pc.data[lo-base : hi-base : hi-base]
}

// page returns the storage of local page lp, nil if it has no frame.
func (r *Region[T]) page(lp int32) []T {
	pc := r.frames[lp]
	if pc == nil {
		return nil
	}
	o := (int(lp) - pc.p0) * r.epp
	return pc.data[o : o+r.epp]
}

// framed returns the storage of local page lp, framing that one page
// first if it has none: a protocol write (an incoming diff or page, a
// twin) to a page the application has not validated here.
func (r *Region[T]) framed(lp int32) []T {
	if r.frames[lp] == nil {
		r.frames[lp] = &piece[T]{p0: int(lp), np: 1, data: make([]T, r.epp)}
		r.nd.frames.Pages++
	}
	return r.page(lp)
}

// span returns the one piece holding local pages [first,last], making
// it so if need be.
func (r *Region[T]) span(first, last int) *piece[T] {
	if pc := r.frames[first]; pc != nil && pc == r.frames[last] {
		return pc
	}
	return r.join(first, last)
}

// join puts local pages [first,last] — unframed, or spread over several
// pieces — into one piece. That piece covers the range and, whole,
// every piece the range touches: their contents are copied over, the
// page table re-pointed and the abandoned storage poisoned, so a view
// taken before the join reads NaN (the minimum integer) instead of
// going quietly stale. The largest piece touched stays where it is when
// the hull fits its reserve, and its views stay good.
//
// A piece that only ever grows upwards — rows validated one by one in
// ascending order, each sharing a page with the last — would be copied
// at every step. From its second join on it is therefore allocated at
// twice the pages it needs (within the region), which bounds the bytes
// copied by such a sweep to those of the region; a first join, and one
// that extends a piece downwards (a halo added on both sides), is sized
// exactly.
func (r *Region[T]) join(first, last int) *piece[T] {
	lo, hi := first, last+1
	var big *piece[T]
	for lp := first; lp <= last; {
		pc := r.frames[lp]
		if pc == nil {
			lp++
			continue
		}
		lo, hi = min(lo, pc.p0), max(hi, pc.p0+pc.np)
		if big == nil || pc.np > big.np {
			big = pc
		}
		lp = pc.p0 + pc.np
	}
	dst := big
	if big == nil {
		dst = &piece[T]{p0: lo, data: make([]T, (hi-lo)*r.epp)}
	} else {
		r.nd.frames.Joins++
		if lo < big.p0 || (hi-big.p0)*r.epp > len(big.data) {
			np := hi - lo
			if big.joined && lo == big.p0 {
				np = min(max(np, 2*big.np), r.npages-lo)
			}
			dst = &piece[T]{p0: lo, data: make([]T, np*r.epp), joined: true}
		}
	}
	poison := poisonOf[T]()
	for lp := lo; lp < hi; {
		pc := r.frames[lp]
		if pc == nil {
			r.frames[lp] = dst
			r.nd.frames.Pages++
			lp++
			continue
		}
		lp = pc.p0 + pc.np
		if pc == dst {
			continue
		}
		old := pc.data[:pc.np*r.epp]
		copy(dst.data[(pc.p0-dst.p0)*r.epp:], old)
		for k := pc.p0; k < lp; k++ {
			r.frames[k] = dst
		}
		for i := range old {
			old[i] = poison
		}
		r.nd.frames.AbandonedBytes += int64(len(pc.data) * r.elemSize)
	}
	dst.np = hi - dst.p0
	return dst
}

// poisonOf is the value join leaves in storage it abandons.
func poisonOf[T Elem]() T {
	var z T
	switch p := any(&z).(type) {
	case *float32:
		*p = float32(math.NaN())
	case *float64:
		*p = math.NaN()
	case *complex64:
		*p = complex64(complex(math.NaN(), math.NaN()))
	case *complex128:
		*p = complex(math.NaN(), math.NaN())
	case *int32:
		*p = math.MinInt32
	case *int64:
		*p = math.MinInt64
	}
	return z
}

// --- regionHandle implementation, and BroadcastRegion's range copies ---

// pageBuf takes a page-sized buffer, contents arbitrary, off the region's
// free list: a twin dropped, a page reply installed or a lent diff given
// back by any node of the system (they all run on one host thread).
// freeBuf puts one back.
func (r *Region[T]) pageBuf() []T {
	free := *r.bufs
	if n := len(free); n > 0 {
		*r.bufs = free[:n-1]
		return free[n-1]
	}
	return make([]T, r.epp)
}

func (r *Region[T]) freeBuf(buf []T) { *r.bufs = append(*r.bufs, buf) }

func (r *Region[T]) makeTwin(lp int32) {
	tw := r.twins[lp]
	if tw == nil {
		tw = r.pageBuf()
		r.twins[lp] = tw
	}
	copy(tw, r.framed(lp))
}

func (r *Region[T]) extract(lp int32, keepTwin bool) (any, int) {
	return r.diff(lp, keepTwin, false)
}

// lend's payload keeps the whole buffer behind its values as their
// capacity, which is how giveBack finds it. An empty diff takes no
// buffer.
func (r *Region[T]) lend(lp int32) (any, int) { return r.diff(lp, false, true) }

func (r *Region[T]) giveBack(payload any) {
	if d := payload.(*delta[T]); d != nil {
		r.freeBuf(d.vals[:r.epp])
	}
}

// diff encodes local page lp against its twin, for extract (lent false)
// and lend.
func (r *Region[T]) diff(lp int32, keepTwin, lent bool) (any, int) {
	tw := r.twins[lp]
	if tw == nil {
		panic("tmk: extract without twin")
	}
	page := r.page(lp) // twinned, so framed
	d, bytes := r.pack(changedRuns(page, tw, r.nd.sys.diffRuns[:0]), page, lent)
	if keepTwin {
		copy(tw, page) // refresh: subsequent writes diff against this state
	} else {
		r.twins[lp] = nil
		r.freeBuf(tw)
	}
	return d, bytes
}

// changedRuns appends to runs the maximal runs of elements, in page
// order, where page[i] != tw[i] (tw at least as long as page), each as
// its (offset, length). Every element is compared with == or !=, so
// +0 and -0 are equal and a NaN differs from everything. Equal
// stretches are skipped eight elements a step and differing runs
// extended four a step; only inside the block that breaks a step, and
// in the tail, are elements taken one at a time. Unsigned indices let
// the compiler drop the element loops' bounds checks.
func changedRuns[T Elem](page, tw []T, runs [][2]int32) [][2]int32 {
	n := uint(len(page))
	tw = tw[:n]
	for i := uint(0); i < n; {
		for i+8 <= n {
			p, t := page[i:i+8:i+8], tw[i:i+8:i+8]
			if p[0] != t[0] || p[1] != t[1] || p[2] != t[2] || p[3] != t[3] ||
				p[4] != t[4] || p[5] != t[5] || p[6] != t[6] || p[7] != t[7] {
				break
			}
			i += 8
		}
		for i < n && page[i] == tw[i] {
			i++
		}
		if i == n {
			break
		}
		j := i + 1
		for j+4 <= n {
			p, t := page[j:j+4:j+4], tw[j:j+4:j+4]
			if p[0] == t[0] || p[1] == t[1] || p[2] == t[2] || p[3] == t[3] {
				break
			}
			j += 4
		}
		for j < n && page[j] != tw[j] {
			j++
		}
		runs = append(runs, [2]int32{int32(i), int32(j - i)})
		i = j
	}
	return runs
}

// pack makes the payload of runs, their values copied from page into
// an exactly sized slab or, lent, a page buffer, and returns it with its
// modeled wire size. runs is the system's scratch, kept for the next
// diff.
func (r *Region[T]) pack(runs [][2]int32, page []T, lent bool) (*delta[T], int) {
	r.nd.sys.diffRuns = runs
	nval := 0
	for _, rn := range runs {
		nval += int(rn[1])
	}
	bytes := proto.DiffRecHdr + len(runs)*proto.DiffSegHdr + nval*r.elemSize
	if len(runs) == 0 {
		return nil, bytes
	}
	var vals []T
	if lent {
		vals = r.pageBuf()[:0]
	} else {
		vals = make([]T, 0, nval)
	}
	for _, rn := range runs {
		vals = append(vals, page[rn[0]:rn[0]+rn[1]]...)
	}
	d := &delta[T]{vals: vals}
	d.runs = append(d.inline[:0], runs...)
	return d, bytes
}

func (r *Region[T]) apply(lp int32, payload any) {
	d := payload.(*delta[T])
	page := r.framed(lp)
	if d == nil {
		return
	}
	d.writeTo(page)
	// An incoming diff must land in the live twin too (as in TreadMarks),
	// keeping the invariant that page-vs-twin shows only *this* node's
	// un-extracted writes. Otherwise a later local write that restores a
	// byte to the twin's now-stale value silently vanishes from the next
	// diff, and remote bytes get re-shipped under this node's interval
	// labels.
	if tw := r.twins[lp]; tw != nil {
		d.writeTo(tw)
	}
}

// writeTo copies every run of d into page, in page order.
func (d *delta[T]) writeTo(page []T) {
	at := int32(0)
	for _, rn := range d.runs {
		copy(page[rn[0]:rn[0]+rn[1]], d.vals[at:at+rn[1]])
		at += rn[1]
	}
}

// snapshot returns the raw values of elements [lo,hi) with their wire
// size. Pages without a frame read as zeros and stay unframed.
func (r *Region[T]) snapshot(lo, hi int) ([]T, int) {
	vals := make([]T, hi-lo)
	for at := lo; at < hi; {
		lp := at / r.epp
		end := min(hi, (lp+1)*r.epp)
		if page := r.page(int32(lp)); page != nil {
			copy(vals[at-lo:], page[at-lp*r.epp:end-lp*r.epp])
		}
		at = end
	}
	return vals, len(vals) * r.elemSize
}

// install overwrites elements [lo,hi) from a snapshot. Like a
// validation it frames the range as one piece: the receivers of a
// broadcast go on to read exactly this range.
func (r *Region[T]) install(lo, hi int, vals []T) {
	if hi == lo {
		return
	}
	copy(r.elems(r.span(lo/r.epp, (hi-1)/r.epp), lo, hi), vals)
}

func (r *Region[T]) snapshotPage(lp int32) (any, int) {
	vals := r.pageBuf()
	if page := r.page(lp); page != nil {
		copy(vals, page)
	} else {
		clear(vals)
	}
	return vals, len(vals) * r.elemSize
}

// installPage consumes payload: the buffer goes back on the free list.
func (r *Region[T]) installPage(lp int32, payload any) {
	vals := payload.([]T)
	copy(r.framed(lp), vals)
	r.freeBuf(vals)
}

func (r *Region[T]) mergeRecs(payloads []any) (any, int) {
	// Replay the diffs in order into a dense page image with a presence
	// mask, then re-encode. Correct because diffs are value writes.
	page := make([]T, r.epp)
	present := make([]bool, r.epp)
	for _, p := range payloads {
		d := p.(*delta[T])
		if d == nil {
			continue
		}
		d.writeTo(page)
		for _, rn := range d.runs {
			for k := rn[0]; k < rn[0]+rn[1]; k++ {
				present[k] = true
			}
		}
	}
	runs := r.nd.sys.diffRuns[:0]
	for i := 0; i < r.epp; {
		if !present[i] {
			i++
			continue
		}
		j := i + 1
		for j < r.epp && present[j] {
			j++
		}
		runs = append(runs, [2]int32{int32(i), int32(j - i)})
		i = j
	}
	return r.pack(runs, page, false)
}

var _ regionHandle = (*Region[float32])(nil)
