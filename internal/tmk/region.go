package tmk

import (
	"fmt"

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

// seg is a run of consecutive changed elements within one page.
type seg[T Elem] struct {
	off  int32
	vals []T
}

// Region is a shared array of T, padded to page boundaries as the SPF
// compiler pads shared arrays (§2.1).
type Region[T Elem] struct {
	nd       *node
	name     string
	n        int
	elemSize int
	epp      int // elements per page
	basePage int
	npages   int
	data     []T
	twins    [][]T // per local page; nil = no twin
	spare    [][]T // dropped twins, reused by makeTwin; at most npages
}

// regionHandle is the untyped view the node keeps for protocol work.
type regionHandle interface {
	// extract encodes the diff of local page lp against its twin,
	// refreshes or drops the twin, and returns the typed payload with its
	// modeled wire size. keepTwin keeps accumulating (page still dirty).
	extract(lp int32, keepTwin bool) (payload any, bytes int)
	// apply writes a diff payload into local page lp.
	apply(lp int32, payload any)
	// makeTwin snapshots local page lp.
	makeTwin(lp int32)
	// snapshot returns the raw values of elements [lo,hi) with wire size.
	snapshot(lo, hi int) (payload any, bytes int)
	// install overwrites elements [lo,hi) from a snapshot payload.
	install(lo, hi int, payload any)
	// snapshotPage returns the full contents of local page lp.
	snapshotPage(lp int32) (payload any, bytes int)
	// installPage overwrites local page lp from a snapshot payload.
	installPage(lp int32, payload any)
	// mergeRecs combines several diff payloads into one (GC squash).
	mergeRecs(payloads []any) (payload any, bytes int)
}

// Alloc creates a shared region of n elements of type T, identically on
// every process. It must be called in the same order with the same
// arguments on all processes.
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
		data:     make([]T, npages*epp),
		twins:    make([][]T, npages),
	}
	rid := len(nd.regions)
	nd.regions = append(nd.regions, r)
	r.basePage = nd.addPages(rid, npages)
	nd.allocSeq++
	return r
}

// Len returns the logical element count.
func (r *Region[T]) Len() int { return r.n }

// PageOf returns the global page id covering element i.
func (r *Region[T]) PageOf(i int) int { return r.basePage + i/r.epp }

// Pages returns the number of pages the region occupies.
func (r *Region[T]) Pages() int { return r.npages }

// ElemsPerPage returns the page capacity in elements.
func (r *Region[T]) ElemsPerPage() int { return r.epp }

// Read validates the pages covering [lo,hi) for reading and returns the
// backing slice. Index the result with the same [lo,hi) element indices.
func (r *Region[T]) Read(lo, hi int) []T {
	r.validate(lo, hi, false, false)
	return r.data
}

// Write validates the pages covering [lo,hi) for writing (twinning them
// for the multiple-writer protocol) and returns the backing slice.
func (r *Region[T]) Write(lo, hi int) []T {
	r.validate(lo, hi, true, false)
	return r.data
}

// ReadAggregated is Read through the enhanced interface (§5): all pages
// in the range are fetched with one request per remote writer instead of
// one request per page per writer.
func (r *Region[T]) ReadAggregated(lo, hi int) []T {
	r.validate(lo, hi, false, true)
	return r.data
}

// WriteAggregated is Write with aggregated fetching.
func (r *Region[T]) WriteAggregated(lo, hi int) []T {
	r.validate(lo, hi, true, true)
	return r.data
}

// ReadAggregatedRanges validates a set of element ranges for reading
// with a single request per remote peer across all of them — the
// enhanced interface's strided-region aggregation, used by the §5.4
// transpose optimization. Each range is [lo, hi).
func (r *Region[T]) ReadAggregatedRanges(ranges [][2]int) []T {
	start := r.nd.tm.p.Now()
	defer func() { r.nd.FaultTime += r.nd.tm.p.Now() - start }()
	var gps []int32
	last := int32(-1)
	for _, rg := range ranges {
		if rg[1] <= rg[0] {
			continue
		}
		first := r.basePage + rg[0]/r.epp
		end := r.basePage + (rg[1]-1)/r.epp
		for gp := first; gp <= end; gp++ {
			if int32(gp) != last {
				gps = append(gps, int32(gp))
				last = int32(gp)
			}
		}
	}
	r.nd.prot.FetchAggregated(gps)
	return r.data
}

// Data returns the raw backing slice without any validation. Only for
// sequential (1-process) use and tests.
func (r *Region[T]) Data() []T { return r.data }

func (r *Region[T]) validate(lo, hi int, write, aggregated bool) {
	if lo < 0 || hi > r.npages*r.epp || lo > hi {
		panic(fmt.Sprintf("tmk: %s: bad range [%d,%d)", r.name, lo, hi))
	}
	if hi == lo {
		return
	}
	first := lo / r.epp
	last := (hi - 1) / r.epp
	start := r.nd.tm.p.Now()
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
	r.nd.FaultTime += r.nd.tm.p.Now() - start
	if write {
		start = r.nd.tm.p.Now()
		for pg := first; pg <= last; pg++ {
			r.nd.prot.WriteTouch(int32(r.basePage + pg))
		}
		r.nd.WriteTime += r.nd.tm.p.Now() - start
	}
}

// --- regionHandle implementation ---

func (r *Region[T]) makeTwin(lp int32) {
	tw := r.twins[lp]
	if tw == nil {
		if n := len(r.spare); n > 0 {
			tw, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			tw = make([]T, r.epp)
		}
		r.twins[lp] = tw
	}
	copy(tw, r.data[int(lp)*r.epp:(int(lp)+1)*r.epp])
}

func (r *Region[T]) extract(lp int32, keepTwin bool) (any, int) {
	tw := r.twins[lp]
	if tw == nil {
		panic("tmk: extract without twin")
	}
	page := r.data[int(lp)*r.epp : (int(lp)+1)*r.epp]
	var segs []seg[T]
	i := 0
	for i < len(page) {
		if page[i] == tw[i] {
			i++
			continue
		}
		j := i
		for j < len(page) && page[j] != tw[j] {
			j++
		}
		vals := make([]T, j-i)
		copy(vals, page[i:j])
		segs = append(segs, seg[T]{off: int32(i), vals: vals})
		i = j
	}
	if keepTwin {
		copy(tw, page) // refresh: subsequent writes diff against this state
	} else {
		r.twins[lp] = nil
		r.spare = append(r.spare, tw)
	}
	bytes := proto.DiffRecHdr
	for _, s := range segs {
		bytes += proto.DiffSegHdr + len(s.vals)*r.elemSize
	}
	return segs, bytes
}

func (r *Region[T]) apply(lp int32, payload any) {
	segs := payload.([]seg[T])
	base := int(lp) * r.epp
	for _, s := range segs {
		copy(r.data[base+int(s.off):base+int(s.off)+len(s.vals)], s.vals)
	}
	// An incoming diff must land in the live twin too (as in TreadMarks),
	// keeping the invariant that page-vs-twin shows only *this* node's
	// un-extracted writes. Otherwise a later local write that restores a
	// byte to the twin's now-stale value silently vanishes from the next
	// diff, and remote bytes get re-shipped under this node's interval
	// labels.
	if tw := r.twins[lp]; tw != nil {
		for _, s := range segs {
			copy(tw[int(s.off):int(s.off)+len(s.vals)], s.vals)
		}
	}
}

func (r *Region[T]) snapshot(lo, hi int) (any, int) {
	vals := make([]T, hi-lo)
	copy(vals, r.data[lo:hi])
	return vals, len(vals) * r.elemSize
}

func (r *Region[T]) install(lo, hi int, payload any) {
	copy(r.data[lo:hi], payload.([]T))
}

func (r *Region[T]) snapshotPage(lp int32) (any, int) {
	return r.snapshot(int(lp)*r.epp, (int(lp)+1)*r.epp)
}

func (r *Region[T]) installPage(lp int32, payload any) {
	r.install(int(lp)*r.epp, (int(lp)+1)*r.epp, payload)
}

func (r *Region[T]) mergeRecs(payloads []any) (any, int) {
	// Replay segments in order into a dense page image with a presence
	// mask, then re-encode. Correct because diffs are value writes.
	page := make([]T, r.epp)
	present := make([]bool, r.epp)
	for _, p := range payloads {
		for _, s := range p.([]seg[T]) {
			for k, v := range s.vals {
				page[int(s.off)+k] = v
				present[int(s.off)+k] = true
			}
		}
	}
	var segs []seg[T]
	i := 0
	for i < r.epp {
		if !present[i] {
			i++
			continue
		}
		j := i
		for j < r.epp && present[j] {
			j++
		}
		vals := make([]T, j-i)
		copy(vals, page[i:j])
		segs = append(segs, seg[T]{off: int32(i), vals: vals})
		i = j
	}
	bytes := proto.DiffRecHdr
	for _, s := range segs {
		bytes += proto.DiffSegHdr + len(s.vals)*r.elemSize
	}
	return segs, bytes
}

var _ regionHandle = (*Region[float32])(nil)
