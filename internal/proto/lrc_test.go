package proto

import "testing"

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
