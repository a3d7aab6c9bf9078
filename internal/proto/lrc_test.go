package proto

import (
	"strings"
	"testing"
)

// TestAddPagesVectorsAreDisjoint: the per-page vectors share one slab
// per addPages call, so each must be exactly nprocs long with no spare
// capacity — an append has to reallocate rather than run into the next
// vector — and writing one must leave every other untouched.
func TestAddPagesVectorsAreDisjoint(t *testing.T) {
	lc := &lrcCore{nprocs: 3}
	lc.addPages(4)
	lc.addPages(2) // a second region: a second slab
	if len(lc.pages) != 6 {
		t.Fatalf("%d pages, want 6", len(lc.pages))
	}
	var vecs [][]int32
	for i := range lc.pages {
		vecs = append(vecs, lc.pages[i].notice, lc.pages[i].applied)
	}
	for k, v := range vecs {
		if len(v) != 3 || cap(v) != 3 {
			t.Fatalf("vector %d: len %d cap %d, want 3 and 3", k, len(v), cap(v))
		}
		for q := range v {
			v[q] = int32(k + 1)
		}
		_ = append(v, -1) // must not land in a neighbor
	}
	for k, v := range vecs {
		for q := range v {
			if v[q] != int32(k+1) {
				t.Errorf("vector %d entry %d = %d, want %d: vectors overlap", k, q, v[q], k+1)
			}
		}
	}
}

// TestApplyBatchesRefusesAGap: what a node has incorporated of a
// writer's intervals is a prefix of the writer's log, because every
// batch continues from the receiver's vector clock. A batch that skips
// the log's next record would leave the receiver without write notices
// it believes it has; ApplyBatches names the writer and the intervals.
func TestApplyBatchesRefusesAGap(t *testing.T) {
	nodes := newTestNodes(2, 3, StaticPolicy)
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
