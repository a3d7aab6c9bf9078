package xhpf

import (
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func newSys(n int) *System { return NewSystem(n, model.SP2()) }

func TestBlockOf(t *testing.T) {
	cases := []struct {
		p, nprocs, n, lo, hi int
	}{
		{0, 4, 100, 0, 25},
		{3, 4, 100, 75, 100},
		{3, 4, 10, 9, 10},
		{3, 4, 3, 3, 3},
		{0, 1, 7, 0, 7},
	}
	for _, c := range cases {
		lo, hi := BlockOf(c.p, c.nprocs, c.n)
		if lo != c.lo || hi != c.hi {
			t.Errorf("BlockOf(%d,%d,%d) = (%d,%d), want (%d,%d)", c.p, c.nprocs, c.n, lo, hi, c.lo, c.hi)
		}
	}
}

// TestBlockOfTilesRange: the blocks of processors 0..7, in order, cover
// [0, n) exactly once — every index has one owner.
func TestBlockOfTilesRange(t *testing.T) {
	for _, n := range []int{8, 100, 500, 501} {
		next := 0
		for p := 0; p < 8; p++ {
			lo, hi := BlockOf(p, 8, n)
			if lo != next || hi < lo {
				t.Fatalf("BlockOf(%d,8,%d) = (%d,%d), want a block starting at %d", p, n, lo, hi, next)
			}
			next = hi
		}
		if next != n {
			t.Fatalf("blocks of n=%d end at %d", n, next)
		}
	}
}

func TestBroadcastPartition(t *testing.T) {
	const n, size = 4, 100
	sys := newSys(n)
	if err := sys.Run(func(x *XHPF) {
		arr := make([]float32, size)
		lo, hi := x.Block(size)
		for i := lo; i < hi; i++ {
			arr[i] = float32(100*x.ID() + i)
		}
		BroadcastPartition(x, arr, size)
		for p := 0; p < n; p++ {
			lo, hi := BlockOf(p, n, size)
			for i := lo; i < hi; i++ {
				if want := float32(100*p + i); arr[i] != want {
					t.Errorf("proc %d: arr[%d] = %v, want %v", x.ID(), i, arr[i], want)
					return
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	// n*(n-1) messages, full array shipped n-1 times.
	if got := sys.Stats().MsgsOf(stats.KindData); got != n*(n-1) {
		t.Errorf("msgs = %d, want %d", got, n*(n-1))
	}
	wantBytes := int64((n - 1) * size * 4) // payloads only
	gotPayload := sys.Stats().BytesOf(stats.KindData) - int64(n*(n-1)*32)
	if gotPayload != wantBytes {
		t.Errorf("payload bytes = %d, want %d", gotPayload, wantBytes)
	}
}

func TestExchangeHalo(t *testing.T) {
	const n, size = 4, 64
	sys := newSys(n)
	if err := sys.Run(func(x *XHPF) {
		// A one-dimensional array is a Local of one-element rows.
		l := NewLocal[float32]("arr", x.ID(), BlockBounds(n, size), 1, 2)
		lo, hi := l.Block()
		for i := lo; i < hi; i++ {
			l.Rows(i, i+1)[0] = float32(i)
		}
		ExchangeHalo(x, l, 2)
		if lo >= 2 {
			if got := l.Rows(lo-2, lo); got[0] != float32(lo-2) || got[1] != float32(lo-1) {
				t.Errorf("proc %d: lower halo wrong: %v", x.ID(), got)
			}
		}
		if hi+2 <= size {
			if got := l.Rows(hi, hi+2); got[0] != float32(hi) || got[1] != float32(hi+1) {
				t.Errorf("proc %d: upper halo wrong: %v", x.ID(), got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Interior boundaries: (n-1) boundaries * 2 directions.
	if got := sys.Stats().MsgsOf(stats.KindData); got != 2*(n-1) {
		t.Errorf("halo msgs = %d, want %d", got, 2*(n-1))
	}
}

func TestLoopSyncCount(t *testing.T) {
	const n = 8
	sys := newSys(n)
	if err := sys.Run(func(x *XHPF) {
		for i := 0; i < 5; i++ {
			x.LoopSync()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().TotalMsgs(); got != 5*2*(n-1) {
		t.Errorf("sync msgs = %d, want %d", got, 5*2*(n-1))
	}
}

func TestAllReduce(t *testing.T) {
	sys := newSys(8)
	if err := sys.Run(func(x *XHPF) {
		out := AllReduceSum(x, []float64{float64(x.ID())})
		if out[0] != 28 {
			t.Errorf("proc %d: allreduce = %v, want 28", x.ID(), out[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSectionAllToAllTransposesBlocks(t *testing.T) {
	// 8x8 matrix, row-block distributed; transpose into column blocks.
	const n, dim = 4, 8
	sys := newSys(n)
	if err := sys.Run(func(x *XHPF) {
		m := make([]float64, dim*dim)  // row-major, rows distributed
		tr := make([]float64, dim*dim) // transposed result
		rlo, rhi := x.Block(dim)
		for r := rlo; r < rhi; r++ {
			for c := 0; c < dim; c++ {
				m[r*dim+c] = float64(r*100 + c)
			}
		}
		// Sections for destination q: my rows' columns in q's block,
		// gathered densely for transmission.
		sectionsFor := func(q int) [][]float64 {
			qlo, qhi := BlockOf(q, n, dim)
			var secs [][]float64
			for r := rlo; r < rhi; r++ {
				secs = append(secs, m[r*dim+qlo:r*dim+qhi])
			}
			return secs
		}
		placeFor := func(q int) [][]float64 {
			qlo, qhi := BlockOf(q, n, dim)
			var secs [][]float64
			for r := qlo; r < qhi; r++ {
				// row r of m lands in column r of tr; my rows of tr are rlo..rhi
				sec := make([]float64, rhi-rlo)
				secs = append(secs, sec)
				_ = sec
				_ = r
			}
			return secs
		}
		_ = placeFor
		// Simpler check: count messages with 2-element sections.
		SectionAllToAll(x, 2, sectionsFor, sectionsFor)
		_ = tr
	}); err != nil {
		t.Fatal(err)
	}
	// per proc: 3 dests * 2 rows * ceil(2/2)=1 msg per section... each
	// section is 2 elements, sectionLen=2 -> 1 msg per row per dest.
	want := int64(n * (n - 1) * 2)
	if got := sys.Stats().MsgsOf(stats.KindData); got != want {
		t.Errorf("msgs = %d, want %d", got, want)
	}
}

func TestBroadcastGatherOrderedParts(t *testing.T) {
	const n, m = 4, 2000 // m spans several 1024-element chunks
	sys := newSys(n)
	if err := sys.Run(func(x *XHPF) {
		mine := make([]float32, m)
		for i := range mine {
			mine[i] = float32(100*x.ID() + i%7)
		}
		parts := make([][]float32, 0, n)
		BroadcastGather(x, mine, make([]float32, m), func(part []float32) {
			parts = append(parts, append([]float32(nil), part...))
		})
		if len(parts) != n {
			t.Errorf("proc %d: %d parts folded, want %d", x.ID(), len(parts), n)
			return
		}
		for q := 0; q < n; q++ {
			for i := 0; i < m; i += 997 {
				want := float32(100*q + i%7)
				if parts[q][i] != want {
					t.Errorf("proc %d: parts[%d][%d] = %v, want %v", x.ID(), q, i, parts[q][i], want)
					return
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Everyone ships its whole buffer to everyone: n*(n-1)*ceil(m/chunk).
	chunks := (m + 1023) / 1024
	want := int64(n * (n - 1) * chunks)
	if got := sys.Stats().MsgsOf(stats.KindData); got != want {
		t.Errorf("gather msgs = %d, want %d", got, want)
	}
}

func TestXHPFBcastDeliversEverywhere(t *testing.T) {
	sys := newSys(4)
	if err := sys.Run(func(x *XHPF) {
		row := make([]float32, 64)
		if x.ID() == 2 {
			for i := range row {
				row[i] = 5
			}
		}
		Bcast(x, 2, row)
		if row[63] != 5 {
			t.Errorf("proc %d: bcast missed", x.ID())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceWithMax(t *testing.T) {
	sys := newSys(8)
	if err := sys.Run(func(x *XHPF) {
		out := AllReduceWith(x, []float64{float64(x.ID())},
			func(a, b float64) float64 { return max(a, b) })
		if out[0] != 7 {
			t.Errorf("proc %d: max = %v, want 7", x.ID(), out[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastBlocksRaggedRows(t *testing.T) {
	// Whole-row blocks over 10 rows of width 8, 4 procs: 3/3/3/1.
	const rows, width, n = 10, 8, 4
	sys := newSys(n)
	blockOf := func(q int) (int, int) {
		lo, hi := BlockOf(q, n, rows)
		return lo * width, hi * width
	}
	if err := sys.Run(func(x *XHPF) {
		arr := make([]float32, rows*width)
		lo, hi := blockOf(x.ID())
		for i := lo; i < hi; i++ {
			arr[i] = float32(i)
		}
		BroadcastBlocks(x, arr, blockOf)
		for i := 0; i < rows*width; i++ {
			if arr[i] != float32(i) {
				t.Errorf("proc %d: arr[%d] = %v", x.ID(), i, arr[i])
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundarySyncUntracked(t *testing.T) {
	sys := newSys(4)
	if err := sys.Run(func(x *XHPF) {
		x.BoundarySync()
		if x.NProcs() != 4 {
			t.Errorf("NProcs = %d", x.NProcs())
		}
		x.Advance(1000)
		_ = x.Now()
		_ = x.PVM()
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().TotalMsgs(); got != 0 {
		t.Errorf("boundary sync counted %d messages", got)
	}
}

// TestBroadcastChunkTailNoOvertake is the regression test for the
// chunk-overtaking bug: the simulated network does not guarantee
// non-overtaking delivery within a (src, dst) pair, so a broadcast
// block whose ragged tail chunk is tiny (here 36 elements after a full
// 1024-element chunk) used to arrive *before* its predecessor, and the
// shared-tag receive loop would install both chunks at the wrong
// offsets. Per-chunk tags fixed it; this pins the placement for every
// (full + tiny tail) block on an uncontended network, where the
// overtake window is widest.
func TestBroadcastChunkTailNoOvertake(t *testing.T) {
	const per = 1024 + 36 // one full 4 KB chunk + a 144-byte tail
	sys := newSys(4)
	if err := sys.Run(func(x *XHPF) {
		n := x.NProcs()
		arr := make([]float32, n*per)
		lo, hi := x.ID()*per, (x.ID()+1)*per
		for i := lo; i < hi; i++ {
			arr[i] = float32(1000*x.ID() + i)
		}
		BroadcastBlocks(x, arr, func(q int) (int, int) { return q * per, (q + 1) * per })
		for q := 0; q < n; q++ {
			for i := q * per; i < (q+1)*per; i++ {
				if arr[i] != float32(1000*q+i) {
					t.Errorf("proc %d: arr[%d] = %v, want %v (chunk placement scrambled)",
						x.ID(), i, arr[i], float32(1000*q+i))
					return
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastPartitionRaggedTail covers the same overtake window in
// BroadcastPartition.
func TestBroadcastPartitionRaggedTail(t *testing.T) {
	const extent = 4 * (1024 + 36)
	sys := newSys(4)
	if err := sys.Run(func(x *XHPF) {
		arr := make([]float32, extent)
		lo, hi := x.Block(extent)
		for i := lo; i < hi; i++ {
			arr[i] = float32(7*x.ID() + i)
		}
		BroadcastPartition(x, arr, extent)
		for q := 0; q < x.NProcs(); q++ {
			qlo, qhi := BlockOf(q, x.NProcs(), extent)
			for i := qlo; i < qhi; i++ {
				if arr[i] != float32(7*q+i) {
					t.Errorf("proc %d: arr[%d] = %v, want %v", x.ID(), i, arr[i], float32(7*q+i))
					return
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSectionAllToAllUnevenSections covers the overtake window in
// SectionAllToAll: each (src, dst) pair exchanges one long section
// whose final chunk is tiny (1024+36 elements at sectionLen=1024)
// followed by a short 7-element section, so without per-message tags
// the small trailing messages would overtake the full chunk and land
// at its offsets. The per-pair message indexes on the send and receive
// sides must mirror each other exactly for uneven section lists.
func TestSectionAllToAllUnevenSections(t *testing.T) {
	const long, short = 1024 + 36, 7
	sys := newSys(3)
	if err := sys.Run(func(x *XHPF) {
		n := x.NProcs()
		me := x.ID()
		// out[d] / in[s]: a long and a short section per remote peer,
		// filled with values identifying (owner, section, index).
		mk := func(owner, peer int) [][]float32 {
			a := make([]float32, long)
			b := make([]float32, short)
			for i := range a {
				a[i] = float32(owner*100000 + peer*10000 + i)
			}
			for i := range b {
				b[i] = float32(owner*100000 + peer*10000 + 5000 + i)
			}
			return [][]float32{a, b}
		}
		out := make([][][]float32, n)
		in := make([][][]float32, n)
		for q := 0; q < n; q++ {
			if q == me {
				continue
			}
			out[q] = mk(me, q)
			in[q] = [][]float32{make([]float32, long), make([]float32, short)}
		}
		SectionAllToAll(x, 1024,
			func(dst int) [][]float32 { return out[dst] },
			func(src int) [][]float32 { return in[src] })
		for q := 0; q < n; q++ {
			if q == me {
				continue
			}
			want := mk(q, me)
			for s := range want {
				for i := range want[s] {
					if in[q][s][i] != want[s][i] {
						t.Errorf("proc %d: in[%d][%d][%d] = %v, want %v (section placement scrambled)",
							me, q, s, i, in[q][s][i], want[s][i])
						return
					}
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
