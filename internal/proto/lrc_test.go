package proto

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// TestAddPagesVectorsAreDisjoint: every page's notice, applied and
// (homeless) appliedSeq vector is a view into one flat table, so each
// must be exactly nprocs long with no spare capacity — an append has to
// reallocate rather than run into the next vector — and writing one must
// leave every other untouched. A second registration moves the tables:
// what the first region's vectors held must move with them.
func TestAddPagesVectorsAreDisjoint(t *testing.T) {
	const nprocs = 3
	hl := newHomeless((*testHost)(&testNode{nprocs: nprocs}))
	views := func() [][]int32 {
		var vecs [][]int32
		for gp := range int32(len(hl.pages)) {
			notice, applied := hl.vectors(gp)
			vecs = append(vecs, notice, applied, hl.appliedSeq(gp))
		}
		return vecs
	}
	fill := func(vecs [][]int32) {
		for k, v := range vecs {
			if len(v) != nprocs || cap(v) != nprocs {
				t.Fatalf("vector %d: len %d cap %d, want %d and %d", k, len(v), cap(v), nprocs, nprocs)
			}
			for q := range v {
				v[q] = int32(k + 1)
			}
			_ = append(v, -1) // must not land in a neighbor
		}
	}
	check := func(vecs [][]int32, when string) {
		for k, v := range vecs {
			for q := range v {
				if v[q] != int32(k+1) {
					t.Errorf("%s: vector %d entry %d = %d, want %d", when, k, q, v[q], k+1)
				}
			}
		}
	}
	hl.AddPages(4)
	fill(views())
	hl.AddPages(2) // a second region: every table moves
	if len(hl.pages) != 6 || len(hl.recSeq) != 6 {
		t.Fatalf("%d pages, %d recSeq entries, want 6 and 6", len(hl.pages), len(hl.recSeq))
	}
	vecs := views()
	check(vecs[:3*4], "after the second registration")
	for _, v := range vecs[3*4:] {
		for q := range v {
			if v[q] != 0 {
				t.Fatalf("a new page's vector holds %v, want zeros", v)
			}
		}
	}
	fill(vecs)
	check(vecs, "after writing every vector")
}

// registrationCases are the instances page registration is measured
// on: both protocols, and the home-based one under the policy with
// per-page tables of its own.
var registrationCases = []registrationCase{{HomelessLRC, ""}, {HomeLRC, StaticPolicy}, {HomeLRC, FirstTouchPolicy}}

type registrationCase struct {
	name   Name
	policy PolicyName
}

func (c registrationCase) String() string {
	if c.policy == "" {
		return string(c.name)
	}
	return fmt.Sprintf("%s/%s", c.name, c.policy)
}

// tables returns an instance's per-page tables.
func tables(p Protocol) []any {
	lc := coreOf(p)
	out := []any{lc.pages, lc.vecs}
	switch p := p.(type) {
	case *homeless:
		out = append(out, p.seqs, p.recSeq)
	case *home:
		switch pol := p.pol.(type) {
		case *staticPolicy:
			out = append(out, pol.homes)
		case *firstTouch:
			out = append(out, pol.homes, pol.claimed, pol.mine)
		}
	}
	return out
}

// capBytes sums the bytes behind slices: their capacities.
func capBytes(ts []any) uint64 {
	var n uint64
	for _, s := range ts {
		v := reflect.ValueOf(s)
		n += uint64(v.Cap()) * uint64(v.Type().Elem().Size())
	}
	return n
}

// TestRegisteringPagesAllocatesOnce: registering a region grows each
// per-page table once, by the whole region. Each registration allocates
// at most one array per table, and no more bytes than 1.1× the tables it
// leaves: what it allocated is those tables, not pages appended one at a
// time or a vector per page.
func TestRegisteringPagesAllocatesOnce(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates beside the tables")
	}
	const nprocs, regions, npages = 8, 3, 1024
	for _, c := range registrationCases {
		for r := range regions {
			// The runtime's own work after a collection (the unique
			// package's cleanup) now and then allocates beside the call,
			// and that only ever adds: the fewest of three trials, each on
			// a fresh instance, is the registration's own.
			bytes, mallocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
			var ts []any
			for range 3 {
				p := New(c.name, c.policy, (*testHost)(&testNode{nprocs: nprocs}))
				for range r {
					p.AddPages(npages)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				p.AddPages(npages)
				runtime.ReadMemStats(&after)
				bytes, mallocs = min(bytes, after.TotalAlloc-before.TotalAlloc), min(mallocs, after.Mallocs-before.Mallocs)
				ts = tables(p)
			}
			size := capBytes(ts)
			if mallocs > uint64(len(ts)) || 10*bytes > 11*size {
				t.Errorf("%v, region %d: %d allocations of %d bytes for %d tables of %d bytes",
					c, r, mallocs, bytes, len(ts), size)
			}
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// BenchmarkAddPages registers 3 regions of 1 024 pages on each node of
// an 8-process run.
func BenchmarkAddPages(b *testing.B) {
	const nprocs, regions, npages = 8, 3, 1024
	for _, c := range registrationCases {
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for id := range nprocs {
					p := New(c.name, c.policy, (*testHost)(&testNode{id: id, nprocs: nprocs}))
					for range regions {
						p.AddPages(npages)
					}
				}
			}
		})
	}
}

// TestApplyBatchesRefusesAGap: what a node has incorporated of a
// writer's intervals is a prefix of the writer's log, because every
// batch continues from the receiver's vector clock. A batch that skips
// the log's next record would leave the receiver without write notices
// it believes it has; ApplyBatches names the writer and the intervals.
func TestApplyBatchesRefusesAGap(t *testing.T) {
	nodes := newTestNodes(HomeLRC, 2, 3, StaticPolicy)
	log := nodes[0].log
	for k := int32(1); k <= 3; k++ {
		log[0] = append(log[0], IntervalRec{Interval: k, Pages: []int32{k - 1}})
	}
	recv := nodes[1].prot
	recv.ApplyBatches([]NoticeBatch{{Proc: 0, Intervals: log[0][:1]}})
	recv.ApplyBatches([]NoticeBatch{{Proc: 0, Intervals: log[0][:2]}}) // overlap: interval 1 is known
	if got := recv.VC()[0]; got != 2 {
		t.Fatalf("vc[0] = %d after intervals 1 and 2, want 2", got)
	}
	log[0] = append(log[0], IntervalRec{Interval: 4, Pages: []int32{0}})
	defer func() {
		msg, _ := recover().(string)
		want := "notices of writer 0 skip intervals: holds through 2, batch brings interval 4, writer's log has interval 3 next"
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q, want it to contain %q", msg, want)
		}
		if got := recv.VC()[0]; got != 2 {
			t.Errorf("vc[0] = %d after the refused batch, want 2", got)
		}
	}()
	recv.ApplyBatches([]NoticeBatch{{Proc: 0, Intervals: log[0][3:]}})
}
