package tmk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/sim"
)

// validProt is a coherence protocol under which every page is always
// valid and writes need no detection, so that Read and Write exercise
// the region's storage and nothing else. The storage tests drive twins,
// diffs and page installs themselves.
type validProt struct{ proto.Protocol }

func (validProt) AddPages(int)            {}
func (validProt) Invalid(int32) bool      { return false }
func (validProt) WriteTouch(int32)        {}
func (validProt) FetchAggregated([]int32) {}

// storageTmk returns the handle of a node that has no system around it:
// enough for Alloc and for validations under validProt.
func storageTmk() *Tmk {
	nd := &node{prot: validProt{}, sys: &System{}}
	nd.tm = &Tmk{p: new(sim.Proc), nd: nd}
	return nd.tm
}

// elemOf maps k ≥ 0 to a distinct non-zero value of T.
func elemOf[T Elem](k int) T {
	var z T
	switch p := any(&z).(type) {
	case *float32:
		*p = float32(k + 1)
	case *float64:
		*p = float64(k + 1)
	case *int32:
		*p = int32(k + 1)
	case *int64:
		*p = int64(k + 1)
	case *complex64:
		*p = complex(float32(k+1), -float32(k+1))
	case *complex128:
		*p = complex(float64(k+1), -float64(k+1))
	default:
		panic("elemOf: type not under test")
	}
	return z
}

// run is a decoded diff run: its offset in the page and its values.
type run[T Elem] struct {
	off  int
	vals []T
}

// runsOf decodes a diff payload into its runs, nil for an empty diff.
// The values alias the payload's, so scribbling them scribbles it.
func runsOf[T Elem](payload any) []run[T] {
	d := payload.(*delta[T])
	if d == nil {
		return nil
	}
	runs, at := []run[T]{}, 0
	for _, rn := range d.runs {
		n := int(rn[1])
		runs = append(runs, run[T]{off: int(rn[0]), vals: d.vals[at : at+n : at+n]})
		at += n
	}
	if at != len(d.vals) {
		panic(fmt.Sprintf("diff payload holds %d values, its runs %d", len(d.vals), at))
	}
	return runs
}

// deltaOf encodes runs as a diff payload.
func deltaOf[T Elem](runs ...run[T]) *delta[T] {
	d := new(delta[T])
	d.runs = d.inline[:0]
	for _, rn := range runs {
		d.runs = append(d.runs, [2]int32{int32(rn.off), int32(len(rn.vals))})
		d.vals = append(d.vals, rn.vals...)
	}
	return d
}

// dense is the storage Region had before frames: one backing array for
// all of the region's pages, and the twin/diff code that went with it,
// kept here as the model the framed storage must match. Its diffs are
// decoded runs, each with its own values.
type dense[T Elem] struct {
	epp, elemSize int
	data          []T
	twins         [][]T
}

func (d *dense[T]) page(lp int) []T { return d.data[lp*d.epp : (lp+1)*d.epp] }

func (d *dense[T]) makeTwin(lp int) { d.twins[lp] = slices.Clone(d.page(lp)) }

func (d *dense[T]) extract(lp int, keepTwin bool) ([]run[T], int) {
	tw, page := d.twins[lp], d.page(lp)
	var runs []run[T]
	for _, rn := range changedRunsRef(page, tw, nil) {
		i, j := int(rn[0]), int(rn[0]+rn[1])
		runs = append(runs, run[T]{off: i, vals: slices.Clone(page[i:j])})
	}
	if keepTwin {
		copy(tw, page)
	} else {
		d.twins[lp] = nil
	}
	return runs, d.wire(runs)
}

func (d *dense[T]) wire(runs []run[T]) int {
	bytes := proto.DiffRecHdr
	for _, s := range runs {
		bytes += proto.DiffSegHdr + len(s.vals)*d.elemSize
	}
	return bytes
}

func (d *dense[T]) apply(lp int, runs []run[T]) {
	for _, s := range runs {
		copy(d.page(lp)[s.off:], s.vals)
		if tw := d.twins[lp]; tw != nil {
			copy(tw[s.off:], s.vals)
		}
	}
}

func (d *dense[T]) mergeRecs(payloads []any) ([]run[T], int) {
	page := make([]T, d.epp)
	present := make([]bool, d.epp)
	for _, p := range payloads {
		for _, s := range runsOf[T](p) {
			for k, v := range s.vals {
				page[s.off+k] = v
				present[s.off+k] = true
			}
		}
	}
	var runs []run[T]
	i := 0
	for i < d.epp {
		if !present[i] {
			i++
			continue
		}
		j := i
		for j < d.epp && present[j] {
			j++
		}
		vals := make([]T, j-i)
		copy(vals, page[i:j])
		runs = append(runs, run[T]{off: i, vals: vals})
		i = j
	}
	return runs, d.wire(runs)
}

func sameRuns[T Elem](a, b []run[T]) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y run[T]) bool {
		return x.off == y.off && slices.Equal(x.vals, y.vals)
	})
}

// changedRunsRef is the element loop changedRuns replaced, kept as its
// reference: one element a trip, compared with == and !=.
func changedRunsRef[T Elem](page, tw []T, runs [][2]int32) [][2]int32 {
	for i := 0; i < len(page); {
		if page[i] == tw[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(page) && page[j] != tw[j] {
			j++
		}
		runs = append(runs, [2]int32{int32(i), int32(j - i)})
		i = j
	}
	return runs
}

// floatElem is x as a float T, and as (x, −x) for a complex one.
func floatElem[T Elem](x float64) T {
	var z T
	switch p := any(&z).(type) {
	case *float32:
		*p = float32(x)
	case *float64:
		*p = x
	case *complex64:
		*p = complex(float32(x), -float32(x))
	case *complex128:
		*p = complex(x, -x)
	default:
		panic("floatElem: integer type")
	}
	return z
}

// specialPairs returns (page, twin) pairs of T's special values: eq
// those == calls equal (signed zeros, whose bits differ, and like
// infinities), ne those it calls different (a NaN against anything,
// itself included, and opposite infinities). The integer types have
// none.
func specialPairs[T Elem]() (eq, ne [][2]T) {
	var z T
	switch any(z).(type) {
	case int32, int64:
		return nil, nil
	}
	f := floatElem[T]
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	eq = [][2]T{{f(0), f(negZero)}, {f(negZero), f(0)}, {f(inf), f(inf)}, {f(-inf), f(-inf)}}
	ne = [][2]T{{f(nan), f(nan)}, {f(nan), f(0)}, {f(negZero), f(nan)}, {f(inf), f(-inf)}, {f(-inf), f(1)}}
	return eq, ne
}

// checkChangedRuns holds changedRuns to changedRunsRef on pages of T:
// every length from 0 to two pages and nine elements (every residue mod
// 8 and mod 4) at five densities of change, and, on a 40-element page,
// one changed run and one equal run from every start to every end. A
// fourth of the equal and of the changed elements are special pairs.
func checkChangedRuns[T Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	eq, ne := specialPairs[T]()
	pair := func(changed bool) (T, T) {
		special := eq
		if changed {
			special = ne
		}
		if len(special) > 0 && rng.Intn(4) == 0 {
			sp := special[rng.Intn(len(special))]
			return sp[0], sp[1]
		}
		v := rng.Intn(3)
		if changed {
			return elemOf[T](v), elemOf[T](v + 1)
		}
		return elemOf[T](v), elemOf[T](v)
	}
	check := func(page, tw []T, what string) {
		t.Helper()
		got := changedRuns(page, tw, nil)
		if want := changedRunsRef(page, tw, nil); !slices.Equal(got, want) {
			t.Fatalf("%T, %s: runs %v, the element loop's %v", page, what, got, want)
		}
	}
	epp := model.PageSize / sizeOfElem[T]()
	for n := 0; n <= 2*epp+9; n++ {
		page, tw := make([]T, n), make([]T, n)
		for _, density := range []float64{0, 0.02, 0.5, 0.98, 1} {
			for i := range page {
				page[i], tw[i] = pair(rng.Float64() < density)
			}
			check(page, tw, fmt.Sprintf("length %d, density %g", n, density))
		}
	}
	const n = 40
	page, tw := make([]T, n), make([]T, n)
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			for _, inside := range []bool{true, false} {
				for i := range page {
					page[i], tw[i] = pair((lo <= i && i < hi) == inside)
				}
				check(page, tw, fmt.Sprintf("[%d,%d) changed %v of %d", lo, hi, inside, n))
			}
		}
	}
}

// TestChangedRunsMatchesElementLoop: the blocked kernel finds exactly
// the element loop's runs for every element type.
func TestChangedRunsMatchesElementLoop(t *testing.T) {
	checkChangedRuns[float32](t)
	checkChangedRuns[float64](t)
	checkChangedRuns[int32](t)
	checkChangedRuns[int64](t)
	checkChangedRuns[complex64](t)
	checkChangedRuns[complex128](t)
}

// FuzzChangedRuns holds changedRuns to changedRunsRef on float32 pages
// whose bits come from the fuzzer: page from pb, twin from tb as far as
// it reaches and equal to the page beyond.
func FuzzChangedRuns(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 4*37), []byte{})
	f.Add(make([]byte, 4*37), bytes.Repeat([]byte{0, 0, 0, 0x80, 0, 0, 0xc0, 0x7f}, 19))
	f.Add(bytes.Repeat([]byte{1, 0, 0x80, 0x7f}, 23), bytes.Repeat([]byte{1, 0, 0x80, 0x7f, 0, 0, 0x80, 0x7f, 2, 0, 0, 0}, 5))
	f.Fuzz(func(t *testing.T, pb, tb []byte) {
		n := len(pb) / 4
		page, tw := make([]float32, n), make([]float32, n)
		for i := range page {
			page[i] = math.Float32frombits(binary.LittleEndian.Uint32(pb[4*i:]))
			tw[i] = page[i]
			if 4*i+4 <= len(tb) {
				tw[i] = math.Float32frombits(binary.LittleEndian.Uint32(tb[4*i:]))
			}
		}
		got := changedRuns(page, tw, nil)
		if want := changedRunsRef(page, tw, nil); !slices.Equal(got, want) {
			t.Fatalf("page %v, twin %v: runs %v, the element loop's %v", page, tw, got, want)
		}
	})
}

// checkFrames holds the frame table to its invariants: a piece's framed
// pages are one interval, every one of them points back at the piece,
// and the reserve behind them is zero.
func checkFrames[T Elem](t testing.TB, r *Region[T]) {
	t.Helper()
	var zero T
	for lp, pc := range r.frames {
		if pc == nil {
			continue
		}
		if lp < pc.p0 || lp >= pc.p0+pc.np || pc.np*r.epp > len(pc.data) || pc.p0+len(pc.data)/r.epp > r.npages {
			t.Fatalf("page %d points at piece [%d,+%d) of %d elements", lp, pc.p0, pc.np, len(pc.data))
		}
		if lp != pc.p0 {
			continue
		}
		for k := pc.p0; k < pc.p0+pc.np; k++ {
			if r.frames[k] != pc {
				t.Fatalf("page %d of piece [%d,+%d) points elsewhere", k, pc.p0, pc.np)
			}
		}
		for i, v := range pc.data[pc.np*r.epp:] {
			if v != zero {
				t.Fatalf("reserve of piece [%d,+%d) holds %v at %d", pc.p0, pc.np, v, i)
			}
		}
	}
}

// driveStorage interprets ops as a sequence of storage operations and
// performs each on a framed Region[T] and on the dense model, failing t
// at the first step after which the two differ in any element, diff
// payload or wire size. The region is five and a bit pages long.
func driveStorage[T Elem](t testing.TB, ops []byte) {
	tm := storageTmk()
	epp := model.PageSize / sizeOfElem[T]()
	const npages = 6
	r := Alloc[T](tm, "driven", 5*epp+epp/3)
	total := npages * epp
	d := &dense[T]{epp: epp, elemSize: r.elemSize, data: make([]T, total), twins: make([][]T, npages)}
	if r.Pages() != npages || r.Len()%epp == 0 {
		t.Fatalf("region has %d pages for %d elements", r.Pages(), r.Len())
	}

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// span picks an element range: anywhere in the region's pages, up to
	// three pages long, so that it straddles frames of every shape.
	span := func() (lo, hi int) {
		lo = (next()<<8 | next()) % total
		return lo, min(total, lo+(next()<<8|next())%(3*epp))
	}
	stamp := 0
	var recs []any // diff payloads extracted or merged so far
	// lent holds the diffs lent and not yet given back, each beside the
	// model's copy of what it held when lent: nothing may write to a
	// lent buffer while it is out.
	type loan struct {
		payload any
		want    []run[T]
	}
	var lent []loan
	const maxLent = 4
	// scribble overwrites a payload the region is done with: apply and
	// installPage copy out of their argument, and a buffer on the free
	// list is reused whatever it holds.
	scribble := func(vals []T) {
		for i := range vals {
			stamp++
			vals[i] = elemOf[T](stamp)
		}
	}

	for step := 0; len(ops) > 0; step++ {
		op := next() % 11
		switch op {
		case 0, 1: // Read or Write a range; a Write stores through the view
			lo, hi := span()
			var v []T
			if op == 0 {
				v = r.Read(lo, hi)
			} else {
				v = r.Write(lo, hi)
			}
			if len(v) != hi-lo || cap(v) != hi-lo {
				t.Fatalf("step %d: view of [%d,%d) has len %d cap %d", step, lo, hi, len(v), cap(v))
			}
			if !slices.Equal(v, d.data[lo:hi]) {
				t.Fatalf("step %d: view of [%d,%d) differs from the model", step, lo, hi)
			}
			if op == 1 {
				for i, stride := 0, 1+next()%7; i < len(v); i += stride {
					stamp++
					v[i], d.data[lo+i] = elemOf[T](stamp), elemOf[T](stamp)
				}
			}
		case 2:
			lp := next() % npages
			r.makeTwin(int32(lp))
			d.makeTwin(lp)
		case 3:
			lp, keep := next()%npages, next()%2 == 0
			if d.twins[lp] == nil {
				continue
			}
			got, gotBytes := r.extract(int32(lp), keep)
			want, wantBytes := d.extract(lp, keep)
			if !sameRuns(runsOf[T](got), want) || gotBytes != wantBytes {
				t.Fatalf("step %d: extract(%d, %v) = %v, %d bytes; model %v, %d bytes", step, lp, keep, got, gotBytes, want, wantBytes)
			}
			recs = append(recs, got)
		case 4:
			if len(recs) == 0 {
				continue
			}
			lp, rec := next()%npages, recs[next()%len(recs)]
			r.apply(int32(lp), rec)
			d.apply(lp, runsOf[T](rec))
			for _, rn := range runsOf[T](rec) {
				scribble(rn.vals)
			}
		case 5: // a whole page travels: snapshotPage there, installPage here
			src, dst := next()%npages, next()%npages
			got, gotBytes := r.snapshotPage(int32(src))
			if !slices.Equal(got.([]T), d.page(src)) || gotBytes != epp*r.elemSize {
				t.Fatalf("step %d: snapshotPage(%d) differs from the model", step, src)
			}
			copy(d.page(dst), got.([]T))
			r.installPage(int32(dst), got) // consumes got
			scribble(got.([]T))
		case 6: // a broadcast arrives
			lo, hi := span()
			vals := make([]T, hi-lo)
			for i := range vals {
				stamp++
				vals[i] = elemOf[T](stamp)
			}
			r.install(lo, hi, vals)
			copy(d.data[lo:hi], vals)
		case 7:
			lo, hi := span()
			got, gotBytes := r.snapshot(lo, hi)
			if !slices.Equal(got, d.data[lo:hi]) || gotBytes != (hi-lo)*r.elemSize {
				t.Fatalf("step %d: snapshot [%d,%d) differs from the model", step, lo, hi)
			}
		case 8:
			if len(recs) == 0 {
				continue
			}
			var some []any
			for k := 1 + next()%4; k > 0; k-- {
				some = append(some, recs[next()%len(recs)])
			}
			got, gotBytes := r.mergeRecs(some)
			want, wantBytes := d.mergeRecs(some)
			if !sameRuns(runsOf[T](got), want) || gotBytes != wantBytes {
				t.Fatalf("step %d: mergeRecs = %v, %d bytes; model %v, %d bytes", step, got, gotBytes, want, wantBytes)
			}
			recs = append(recs, got)
		case 9: // a flush diff is lent: extract dropping the twin
			lp := next() % npages
			if d.twins[lp] == nil || len(lent) == maxLent {
				continue
			}
			got, gotBytes := r.lend(int32(lp))
			want, wantBytes := d.extract(lp, false)
			if !sameRuns(runsOf[T](got), want) || gotBytes != wantBytes {
				t.Fatalf("step %d: lend(%d) = %v, %d bytes; model %v, %d bytes", step, lp, got, gotBytes, want, wantBytes)
			}
			dst := next() % npages // where a home applies it
			r.apply(int32(dst), got)
			d.apply(dst, want)
			lent = append(lent, loan{got, want})
		case 10: // the last ack is in: the loan goes back
			if len(lent) == 0 {
				continue
			}
			k := next() % len(lent)
			ln := lent[k]
			lent = append(lent[:k], lent[k+1:]...)
			if runs := runsOf[T](ln.payload); !sameRuns(runs, ln.want) {
				t.Fatalf("step %d: a lent diff changed while out: %v, lent as %v", step, runs, ln.want)
			}
			r.giveBack(ln.payload)
			if d := ln.payload.(*delta[T]); d != nil {
				if buf := r.pageBuf(); &buf[0] != &d.vals[0] || len(buf) != epp {
					t.Fatalf("step %d: the returned buffer is not the next one pageBuf hands out", step)
				}
				r.freeBuf(d.vals[:epp])
			}
		}
		// Every element, twins included, after every step. The snapshots
		// read unframed pages as zeros and frame nothing.
		framed := tm.nd.frames
		if all, _ := r.snapshot(0, total); !slices.Equal(all, d.data) {
			t.Fatalf("step %d (op %d): region differs from the model", step, op)
		}
		pg, _ := r.snapshotPage(int32(step % npages))
		if !slices.Equal(pg.([]T), d.page(step%npages)) {
			t.Fatalf("step %d (op %d): snapshotPage(%d) differs from the model", step, op, step%npages)
		}
		if tm.nd.frames != framed {
			t.Fatalf("step %d: a snapshot framed pages: %+v, then %+v", step, framed, tm.nd.frames)
		}
		scribble(pg.([]T))
		r.freeBuf(pg.([]T))
		// Buffers are made only when the list is empty, so it never holds
		// more than were ever out at once: a twin per page, one reply and
		// the loans.
		if n := len(*r.bufs); n > npages+1+maxLent {
			t.Fatalf("step %d: %d buffers on the free list of a %d-page region", step, n, npages)
		}
		for lp, tw := range d.twins {
			if !slices.Equal(r.twins[lp], tw) {
				t.Fatalf("step %d (op %d): twin of page %d differs from the model", step, op, lp)
			}
		}
		checkFrames(t, r)
	}
}

// driveAll runs one op sequence over every element size a region can
// have: 4, 8 and 16 bytes.
func driveAll(t testing.TB, ops []byte) {
	driveStorage[float32](t, ops)
	driveStorage[float64](t, ops)
	driveStorage[complex128](t, ops)
}

// TestRegionStorageDifferential: random operation sequences leave the
// framed storage and the dense model it replaced indistinguishable.
func TestRegionStorageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for k := 0; k < 60; k++ {
		ops := make([]byte, 64+rng.Intn(700))
		rng.Read(ops)
		driveAll(t, ops)
	}
}

// FuzzRegionStorage is the same driver from the byte side. The seeds
// under testdata/fuzz/FuzzRegionStorage (unaligned rows validated in
// ascending and in descending order, pages framed by diffs and page
// installs and then joined, twin/extract/apply/merge chains, diffs lent,
// applied and given back) run in every plain `go test`; CI's fuzz-smoke
// job mutates them for ten seconds.
func FuzzRegionStorage(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) { driveAll(t, ops) })
}

// TestJoinPreservesContentsAndPoisonsOldViews frames pages 1 and 3
// through apply, as incoming diffs do, then validates a range across
// them and the unframed page between: one piece afterwards, contents
// kept, page 2 zero, and the storage the two pages left is poisoned so
// that a view kept across the join cannot be read by mistake.
func TestJoinPreservesContentsAndPoisonsOldViews(t *testing.T) {
	tm := storageTmk()
	r := Alloc[float32](tm, "a", 5*1024)
	r.apply(1, deltaOf(run[float32]{off: 7, vals: []float32{1, 2, 3}}))
	r.apply(3, deltaOf(run[float32]{off: 1000, vals: []float32{4, 5}}))
	if got := tm.nd.frames; got != (FrameCounters{Pages: 2}) {
		t.Fatalf("after two applies: %+v", got)
	}
	old1, old3 := r.Read(1024+7, 1024+10), r.Read(3*1024+1000, 3*1024+1002)
	if !slices.Equal(old1, []float32{1, 2, 3}) || !slices.Equal(old3, []float32{4, 5}) {
		t.Fatalf("views of the applied pages: %v %v", old1, old3)
	}

	v := r.Read(1024, 4*1024)
	want := make([]float32, 3*1024)
	copy(want[7:], []float32{1, 2, 3})
	copy(want[2*1024+1000:], []float32{4, 5})
	if !slices.Equal(v, want) {
		t.Error("contents changed across the join")
	}
	if r.frames[1] == nil || r.frames[1] != r.frames[2] || r.frames[2] != r.frames[3] || r.frames[0] != nil || r.frames[4] != nil {
		t.Error("pages 1..3 are not one piece, or pages 0 and 4 got framed")
	}
	for _, x := range append(old1, old3...) {
		if x == x {
			t.Errorf("stale view reads %v, want NaN", x)
		}
	}
	want8k := FrameCounters{Pages: 3, Joins: 1, AbandonedBytes: 2 * model.PageSize}
	if got := tm.nd.frames; got != want8k {
		t.Errorf("counters %+v, want %+v", got, want8k)
	}
	// Protocol writes land in the new piece, and the view sees them.
	r.apply(2, deltaOf(run[float32]{off: 0, vals: []float32{9}}))
	if v[1024] != 9 {
		t.Error("a diff applied after the join is not visible through the view")
	}
	checkFrames(t, r)
}

// TestAscendingRowsAmortised validates rows of 1000 float32 — 4000
// bytes, so every row shares a page with the one before — one by one in
// ascending order over a 1 MB region. Each validation extends the one
// piece; were it copied every time the sweep would allocate 128 times
// the region.
func TestAscendingRowsAmortised(t *testing.T) {
	const rows, cols = 262, 1000
	tm := storageTmk()
	r := Alloc[float32](tm, "grid", rows*cols)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		row := r.Write(i*cols, (i+1)*cols)
		row[0], row[cols-1] = float32(i), float32(-i)
	}
	runtime.ReadMemStats(&after)
	region := uint64(r.Pages() * model.PageSize)
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*region {
		t.Errorf("ascending sweep allocated %d bytes for a %d-byte region: more than 3x", got, region)
	}
	if got := uint64(tm.nd.frames.AbandonedBytes); got > 2*region {
		t.Errorf("joins abandoned %d bytes of a %d-byte region", got, region)
	}
	all := r.Read(0, rows*cols)
	for i := 0; i < rows; i++ {
		if all[i*cols] != float32(i) || all[(i+1)*cols-1] != float32(-i) {
			t.Fatalf("row %d lost its values", i)
		}
	}
	checkFrames(t, r)
}

// TestViewIsExact: a view is elements [lo,hi) and nothing else, so that
// an access the program did not validate is an index panic, not a
// silent read of whatever the node happens to hold.
func TestViewIsExact(t *testing.T) {
	r := Alloc[float64](storageTmk(), "a", 3000)
	for _, rg := range [][2]int{{0, 3000}, {5, 6}, {500, 1700}, {1024, 1536}, {2999, 3072}, {7, 7}} {
		v := r.Read(rg[0], rg[1])
		if len(v) != rg[1]-rg[0] || cap(v) != len(v) {
			t.Errorf("Read(%d,%d): len %d cap %d", rg[0], rg[1], len(v), cap(v))
		}
	}
	w := r.Write(100, 200)
	w[0], w[99] = 1, 2
	if g := r.Read(0, 3000); g[100] != 1 || g[199] != 2 {
		t.Error("v[i-lo] is not element i")
	}
	defer func() {
		if recover() == nil {
			t.Error("index one past the view did not panic")
		}
	}()
	w[100] = 3
}

// TestRangeChecks: every entry point that takes an element range
// refuses one that leaves the region's pages — beyond them pageOf names
// pages of the next region, which the protocol would fetch, push or
// mark without complaint.
func TestRangeChecks(t *testing.T) {
	for name, call := range map[string]func(tm *Tmk, a *Region[float32]){
		"Read":                 func(tm *Tmk, a *Region[float32]) { a.Read(0, 2049) },
		"ReadAggregatedRanges": func(tm *Tmk, a *Region[float32]) { a.ReadAggregatedRanges([][2]int{{0, 8}, {2000, 2049}}) },
		"ReadAggregatedRanges inverted": func(tm *Tmk, a *Region[float32]) {
			a.ReadAggregatedRanges([][2]int{{9, 8}})
		},
		"PushOnBarrier":   func(tm *Tmk, a *Region[float32]) { PushOnBarrier(tm, a, 1024, 3072, 1) },
		"BroadcastRegion": func(tm *Tmk, a *Region[float32]) { BroadcastRegion(tm, a, -1, 10, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			err := newTestSystem(2).Run(func(tm *Tmk) {
				a := Alloc[float32](tm, "first", 2000) // two pages
				Alloc[float32](tm, "next", 1024)
				if tm.ID() != 0 {
					return
				}
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "first: bad range") {
						t.Errorf("panic %q, want first's bad range", msg)
					}
				}()
				call(tm, a)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFrameCountersSumOverNodes: a node frames what it touches — the
// writer its block, the reader of everything the whole region — and the
// system accessor adds the nodes up.
func TestFrameCountersSumOverNodes(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 16*1024)
		lo := tm.ID() * 4 * 1024
		clear(r.Write(lo, lo+4*1024))
		tm.Barrier()
		if tm.ID() == 3 {
			r.Read(0, 16*1024)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 nodes × 4 pages, node 3 all 16; its join leaves a 4-page piece.
	want := FrameCounters{Pages: 3*4 + 16, Joins: 1, AbandonedBytes: 4 * model.PageSize}
	if got := sys.FrameCounters(); got != want {
		t.Errorf("FrameCounters = %+v, want %+v", got, want)
	}
}

// TestPageBuffersAreRecycled: under the home-based protocol every fault
// is answered with a whole page. The reply's buffer comes off the
// region's free list at the home and goes back on it at the requester,
// so a run makes as many buffers as were ever out at once — twins and
// replies in flight — not one per fetch, and the list stays within
// nodes × region pages.
func TestPageBuffersAreRecycled(t *testing.T) {
	const nodes, pages, epp, rounds = 8, 32, 1024, 12
	sys := NewSystem(nodes, model.SP2(), WithProtocol(proto.HomeLRC))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "grid", pages*epp)
		lo := tm.ID() * (pages / nodes) * epp
		hi := lo + (pages/nodes)*epp
		for k := 1; k <= rounds; k++ {
			w := r.Write(lo, hi)
			for i := range w {
				w[i] = float32(k*nodes + tm.ID())
			}
			tm.Barrier()
			all := r.Read(0, pages*epp) // every other node's pages, refetched each round
			for q := 0; q < nodes; q++ {
				if got, want := all[q*(pages/nodes)*epp+7], float32(k*nodes+q); got != want {
					t.Errorf("round %d: node %d reads %v from node %d's block, want %v", k, tm.ID(), got, q, want)
				}
			}
			tm.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fetches := sys.ProtocolCounters().PageFetches
	if want := int64(rounds * nodes * (pages - pages/nodes)); fetches < want {
		t.Fatalf("%d page fetches, want at least %d: the program does not exercise the reply path", fetches, want)
	}
	free := len(*sys.pageBufs[0].(*[][]float32))
	if free > nodes*pages {
		t.Errorf("%d buffers on the free list, more than nodes × pages = %d", free, nodes*pages)
	}
	if int64(free)*8 > fetches {
		t.Errorf("%d page buffers made for %d fetches: replies are not recycled", free, fetches)
	}
	// The host bytes say the same: a buffer per fetch alone would be
	// fetches × 4 KB.
	if got, perFetch := after.TotalAlloc-before.TotalAlloc, uint64(fetches)*model.PageSize; got > perFetch/2 {
		t.Errorf("run allocated %d bytes; a buffer per fetch alone is %d", got, perFetch)
	}
}
