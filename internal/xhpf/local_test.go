package xhpf

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/pvm"
	"repro/internal/stats"
)

func TestBlockBoundsAreTheBlockOfBlocks(t *testing.T) {
	for _, c := range [][2]int{{1, 7}, {4, 100}, {4, 10}, {4, 3}, {8, 13}, {8, 64}} {
		nprocs, n := c[0], c[1]
		b := BlockBounds(nprocs, n)
		if len(b) != nprocs+1 || b[0] != 0 || b[nprocs] != n {
			t.Fatalf("BlockBounds(%d,%d) = %v", nprocs, n, b)
		}
		for q := 0; q < nprocs; q++ {
			lo, hi := BlockOf(q, nprocs, n)
			if b[q] != lo || b[q+1] != hi {
				t.Errorf("BlockBounds(%d,%d): block %d = [%d,%d), BlockOf says [%d,%d)", nprocs, n, q, b[q], b[q+1], lo, hi)
			}
		}
	}
}

// TestLocalRowMapping walks every processor's part of a ragged
// distribution: the stored rows are the owned block and its halo
// clipped at rows 0 and n-1, a global row lands at (row - first stored
// row) in Data, and nothing more than that is allocated.
func TestLocalRowMapping(t *testing.T) {
	const rows, cols, halo, nprocs = 13, 5, 2, 4 // blocks 4/4/4/1
	bounds := BlockBounds(nprocs, rows)
	for me := 0; me < nprocs; me++ {
		l := NewLocal[float64]("grid", me, bounds, cols, halo)
		lo, hi := l.Block()
		if wlo, whi := BlockOf(me, nprocs, rows); lo != wlo || hi != whi {
			t.Fatalf("proc %d: Block = [%d,%d), want [%d,%d)", me, lo, hi, wlo, whi)
		}
		slo, shi := l.Stored()
		if slo != max(lo-halo, 0) || shi != min(hi+halo, rows) {
			t.Errorf("proc %d: Stored = [%d,%d), want the block [%d,%d) widened by %d and clipped to [0,%d)",
				me, slo, shi, lo, hi, halo, rows)
		}
		if len(l.Data()) != (shi-slo)*cols {
			t.Errorf("proc %d: %d elements allocated for %d stored rows of %d", me, len(l.Data()), shi-slo, cols)
		}
		for i := range l.Data() {
			l.Data()[i] = float64(slo*cols + i) // the element's global index
		}
		for r := slo; r < shi; r++ {
			row := l.Rows(r, r+1)
			if len(row) != cols || row[0] != float64(r*cols) || row[cols-1] != float64(r*cols+cols-1) {
				t.Errorf("proc %d: Rows(%d,%d) = %v, want global elements %d..%d", me, r, r+1, row, r*cols, r*cols+cols-1)
			}
		}
		if own := l.Owned(); len(own) != (hi-lo)*cols || own[0] != float64(lo*cols) {
			t.Errorf("proc %d: Owned starts at %v with %d elements, want %d with %d", me, own[0], len(own), lo*cols, (hi-lo)*cols)
		}
	}
	first, last := NewLocal[float64]("grid", 0, bounds, cols, halo), NewLocal[float64]("grid", nprocs-1, bounds, cols, halo)
	if slo, _ := first.Stored(); slo != 0 {
		t.Errorf("first processor stores from row %d: the halo above row 0 must be clipped", slo)
	}
	if _, shi := last.Stored(); shi != rows {
		t.Errorf("last processor stores up to row %d: the halo below row %d must be clipped", shi, rows-1)
	}
}

// TestLocalEmptyTrailingBlocks: with more processors than rows the
// trailing blocks are empty; they own nothing and take no part in an
// exchange, and the exchange still completes.
func TestLocalEmptyTrailingBlocks(t *testing.T) {
	const rows, cols, nprocs = 3, 4, 8
	sys := newSys(nprocs)
	if err := sys.Run(func(x *XHPF) {
		l := NewLocal[float32]("thin", x.ID(), BlockBounds(nprocs, rows), cols, 1)
		lo, hi := l.Block()
		if x.ID() >= rows && (lo != rows || hi != rows || len(l.Owned()) != 0) {
			t.Errorf("proc %d: block [%d,%d) with %d owned elements, want empty at %d", x.ID(), lo, hi, len(l.Owned()), rows)
		}
		for i := lo; i < hi; i++ {
			l.Rows(i, i+1)[0] = float32(10 + i)
		}
		ExchangeHalo(x, l, 1)
		if lo < hi && lo > 0 && l.Rows(lo-1, lo)[0] != float32(10+lo-1) {
			t.Errorf("proc %d: lower halo = %v", x.ID(), l.Rows(lo-1, lo)[0])
		}
		if lo < hi && hi < rows && l.Rows(hi, hi+1)[0] != float32(10+hi) {
			t.Errorf("proc %d: upper halo = %v", x.ID(), l.Rows(hi, hi+1)[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Three one-row blocks: two interior boundaries, two directions.
	if got := sys.Stats().MsgsOf(stats.KindData); got != 4 {
		t.Errorf("halo msgs = %d, want 4 (empty blocks must stay silent)", got)
	}
}

// TestLocalExchangeGatherRoundTrip distributes a ragged grid over 1-8
// processors, exchanges halos and gathers it back: every halo row holds
// its owner's values, and the gathered blocks concatenate to the grid.
func TestLocalExchangeGatherRoundTrip(t *testing.T) {
	const rows, cols = 13, 6
	val := func(r, c int) float32 { return float32(100*r + c) }
	for nprocs := 1; nprocs <= 8; nprocs++ {
		t.Run(fmt.Sprintf("p%d", nprocs), func(t *testing.T) {
			var blocks [][]float32
			sys := newSys(nprocs)
			if err := sys.Run(func(x *XHPF) {
				l := NewLocal[float32]("grid", x.ID(), BlockBounds(nprocs, rows), cols, 1)
				lo, hi := l.Block()
				for r := lo; r < hi; r++ {
					for c, row := 0, l.Rows(r, r+1); c < cols; c++ {
						row[c] = val(r, c)
					}
				}
				ExchangeHalo(x, l, 1)
				slo, shi := l.Stored()
				for r := slo; r < shi && lo < hi; r++ {
					for c, row := 0, l.Rows(r, r+1); c < cols; c++ {
						if row[c] != val(r, c) {
							t.Errorf("proc %d: row %d col %d = %v, want %v", x.ID(), r, c, row[c], val(r, c))
							return
						}
					}
				}
				if got := pvm.GatherUntracked(x.PVM(), 90, l.Owned()); x.ID() == 0 {
					blocks = got
				} else if got != nil {
					t.Errorf("proc %d: gather returned %d blocks off task 0", x.ID(), len(got))
				}
			}); err != nil {
				t.Fatal(err)
			}
			if len(blocks) != nprocs {
				t.Fatalf("gathered %d blocks, want %d", len(blocks), nprocs)
			}
			i := 0
			for _, b := range blocks {
				for _, v := range b {
					if want := val(i/cols, i%cols); v != want {
						t.Fatalf("gathered element %d = %v, want %v", i, v, want)
					}
					i++
				}
			}
			if i != rows*cols {
				t.Errorf("gathered %d elements, want %d", i, rows*cols)
			}
		})
	}
}

// TestLocalRowsOutsideStoredPanics: a request beyond the block and its
// halo names the array instead of reading whatever lies there.
func TestLocalRowsOutsideStoredPanics(t *testing.T) {
	l := NewLocal[float32]("pressure", 1, BlockBounds(4, 16), 3, 1) // owns [4,8), stores [3,9)
	for _, r := range [][2]int{{2, 4}, {8, 10}, {0, 16}, {6, 5}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"pressure"`) {
					t.Errorf("Rows(%d,%d): panic %q, want one naming the array", r[0], r[1], msg)
				}
			}()
			l.Rows(r[0], r[1])
		}()
	}
	if got := len(l.Rows(3, 9)); got != 6*3 {
		t.Errorf("Rows over exactly the stored rows: %d elements, want 18", got)
	}
}

// sectionCharges runs every collective that bills section bytes on two
// processors of a machine where one section byte costs one nanosecond
// and everything else is free, so processor 0's clock reads the bytes
// it was billed. They must be the bytes it put on and took off the
// wire, whatever the element type.
func sectionCharges[T pvm.Scalar](t *testing.T) {
	const elems = 96
	size := int64(pvm.SizeOf[T]())
	whole := func(q int) (int, int) { return q * elems, (q + 1) * elems }
	cases := []struct {
		name string
		run  func(x *XHPF)
		// billed is what processor 0 is charged, in elements: the
		// collectives differ in which side of a transfer pays.
		billed int64
		wire   int64 // elements on the wire, both directions
	}{
		{"Bcast", func(x *XHPF) { Bcast(x, 0, make([]T, elems)) }, elems, elems},
		{"BroadcastGather", func(x *XHPF) {
			BroadcastGather(x, make([]T, elems), make([]T, elems), func([]T) {})
		}, 2 * elems, 2 * elems},
		{"BroadcastBlocks", func(x *XHPF) { BroadcastBlocks(x, make([]T, 2*elems), whole) }, 2 * elems, 2 * elems},
		{"BroadcastPartition", func(x *XHPF) { BroadcastPartition(x, make([]T, 2*elems), 2*elems) }, 2 * elems, 2 * elems},
		{"ExchangeHalo", func(x *XHPF) {
			ExchangeHalo(x, NewLocal[T]("a", x.ID(), BlockBounds(2, 8), elems/2, 2), 2)
		}, elems, 2 * elems},
		{"SectionAllToAll", func(x *XHPF) {
			secs := func(int) [][]T { return [][]T{make([]T, elems)} }
			SectionAllToAll(x, 32, secs, secs)
		}, 2 * elems, 2 * elems},
	}
	for _, c := range cases {
		sys := NewSystem(2, model.Costs{SectionNanosPerByte: 1})
		var clock int64
		if err := sys.Run(func(x *XHPF) {
			c.run(x)
			if x.ID() == 0 {
				clock = int64(x.Now())
			}
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if wire := sys.Stats().BytesOf(stats.KindData); wire != c.wire*size {
			t.Errorf("%s: %d bytes on the wire, want %d elements of %d bytes", c.name, wire, c.wire, size)
		}
		if clock != c.billed*size {
			t.Errorf("%s: processor 0 billed %d section bytes, want %d elements of %d bytes", c.name, clock, c.billed, size)
		}
	}
}

func TestSectionBytesFollowElementType(t *testing.T) {
	t.Run("float32", sectionCharges[float32])
	t.Run("float64", sectionCharges[float64])
	t.Run("complex128", sectionCharges[complex128])
}
