package tmk

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newTestSystem(n int) *System {
	return NewSystem(n, model.SP2())
}

func TestSingleProcWriteRead(t *testing.T) {
	sys := newTestSystem(1)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 2000)
		w := r.Write(0, 2000)
		for i := 0; i < 2000; i++ {
			w[i] = float32(i)
		}
		tm.Barrier()
		g := r.Read(0, 2000)
		for i := 0; i < 2000; i++ {
			if g[i] != float32(i) {
				t.Fatalf("a[%d] = %v", i, g[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().TotalMsgs() != 0 {
		t.Errorf("single proc sent %d messages", sys.Stats().TotalMsgs())
	}
}

func TestWriteVisibleAfterBarrier(t *testing.T) {
	sys := newTestSystem(2)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024)
		if tm.ID() == 0 {
			w := r.Write(0, 1024)
			for i := range w[:1024] {
				w[i] = 42
			}
		}
		tm.Barrier()
		if tm.ID() == 1 {
			g := r.Read(0, 1024)
			for i := 0; i < 1024; i++ {
				if g[i] != 42 {
					t.Errorf("a[%d] = %v, want 42", i, g[i])
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Stats()
	// 1 barrier * 2(n-1) + one page fault (diff req + diff resp).
	if got := s.MsgsOf(stats.KindBarrier); got != 2 {
		t.Errorf("barrier msgs = %d, want 2", got)
	}
	if got := s.MsgsOf(stats.KindDiffReq); got != 1 {
		t.Errorf("diff requests = %d, want 1", got)
	}
	if got := s.MsgsOf(stats.KindDiff); got != 1 {
		t.Errorf("diff replies = %d, want 1", got)
	}
}

func TestBarrierMessageFormula(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		sys := newTestSystem(n)
		const iters = 5
		if err := sys.Run(func(tm *Tmk) {
			for i := 0; i < iters; i++ {
				tm.Barrier()
			}
		}); err != nil {
			t.Fatal(err)
		}
		want := int64(iters * 2 * (n - 1))
		if got := sys.Stats().MsgsOf(stats.KindBarrier); got != want {
			t.Errorf("n=%d: barrier msgs = %d, want %d", n, got, want)
		}
	}
}

// TestMultipleWriterFalseSharing: two processes write disjoint halves of
// the same page between barriers; both must end with the full merged
// page. This is the core of the multiple-writer protocol.
func TestMultipleWriterFalseSharing(t *testing.T) {
	sys := newTestSystem(2)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024) // exactly one page
		half := 512
		lo := tm.ID() * half
		w := r.Write(lo, lo+half)
		for i := lo; i < lo+half; i++ {
			w[i-lo] = float32(100*tm.ID() + 1)
		}
		tm.Barrier()
		g := r.Read(0, 1024)
		for i := 0; i < 1024; i++ {
			want := float32(1)
			if i >= half {
				want = 101
			}
			if g[i] != want {
				t.Errorf("proc %d: a[%d] = %v, want %v", tm.ID(), i, g[i], want)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiffOnlyChangedBytes: rewriting identical values must yield an
// empty diff — the effect behind Jacobi's tiny data totals in Table 2.
func TestDiffOnlyChangedBytes(t *testing.T) {
	sys := newTestSystem(2)
	var diffBytes int64
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024)
		if tm.ID() == 0 {
			w := r.Write(0, 1024)
			for i := range w[:1024] {
				w[i] = 7
			}
		}
		tm.Barrier()
		r.Read(0, 1024)
		tm.Barrier()
		if tm.ID() == 0 {
			w := r.Write(0, 1024)
			for i := range w[:1024] {
				w[i] = 7 // identical values: no changed bytes
			}
			w[3] = 8 // except one word
		}
		tm.Barrier()
		if tm.ID() == 1 {
			g := r.Read(0, 1024)
			if g[3] != 8 || g[4] != 7 {
				t.Errorf("got a[3]=%v a[4]=%v", g[3], g[4])
			}
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	diffBytes = sys.Stats().BytesOf(stats.KindDiff)
	// First fetch carries the 4 KB initialization diff; the second fetch
	// must carry only ~one element. Allow generous headroom for headers.
	if diffBytes > 4096+4+3*64 {
		t.Errorf("diff bytes = %d, want ~4KB + one element", diffBytes)
	}
}

// TestDiffAccumulation: a page written across many intervals with no
// reader must be fetchable with a single diff message (lazy diffing with
// domination) — the effect that keeps MGS traffic linear.
func TestDiffAccumulation(t *testing.T) {
	sys := newTestSystem(2)
	const rounds = 10
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024)
		for k := 0; k < rounds; k++ {
			if tm.ID() == 0 {
				w := r.Write(0, 1024)
				for i := range w[:1024] {
					w[i] = float32(k + 1)
				}
			}
			tm.Barrier()
		}
		if tm.ID() == 1 {
			g := r.Read(0, 1024)
			if g[0] != rounds {
				t.Errorf("a[0] = %v, want %d", g[0], rounds)
			}
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Stats()
	if got := s.MsgsOf(stats.KindDiffReq); got != 1 {
		t.Errorf("diff requests = %d, want 1 (domination)", got)
	}
	// And the single response must carry roughly one page, not `rounds`.
	if got := s.BytesOf(stats.KindDiff); got > 4096+256 {
		t.Errorf("diff bytes = %d, want about one page", got)
	}
}

func TestLockMutualExclusionAndConsistency(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		counter := Alloc[int64](tm, "counter", 8)
		const rounds = 5
		for k := 0; k < rounds; k++ {
			tm.AcquireLock(3)
			w := counter.Write(0, 1)
			w[0]++
			tm.ReleaseLock(3)
		}
		tm.Barrier()
		g := counter.Read(0, 1)
		if g[0] != 4*rounds {
			t.Errorf("proc %d: counter = %d, want %d", tm.ID(), g[0], 4*rounds)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockReacquireIsFree(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		if tm.ID() == 1 { // lock 1 is managed by node 1: zero-message path
			for k := 0; k < 10; k++ {
				tm.AcquireLock(1)
				tm.ReleaseLock(1)
			}
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().MsgsOf(stats.KindLock); got != 0 {
		t.Errorf("lock msgs = %d, want 0 for manager reacquire", got)
	}
}

func TestLockRemoteAcquireMessageCount(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		if tm.ID() == 2 {
			// Lock 1's manager is node 1, token starts there:
			// request to manager + grant = 2 messages.
			tm.AcquireLock(1)
			tm.ReleaseLock(1)
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().MsgsOf(stats.KindLock); got != 2 {
		t.Errorf("lock msgs = %d, want 2 (request + grant)", got)
	}
}

func TestLockCarriesConsistency(t *testing.T) {
	// Writes made under a lock must be visible to the next acquirer with
	// no barrier in between (lazy release consistency through the grant).
	sys := newTestSystem(2)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024)
		if tm.ID() == 0 {
			tm.AcquireLock(0)
			r.Write(5, 6)[0] = 99 // a view of element 5 alone
			tm.ReleaseLock(0)
			tm.Barrier()
		} else {
			tm.Barrier() // order the acquires: proc 0 first
			tm.AcquireLock(0)
			if g := r.Read(5, 6); g[0] != 99 {
				t.Errorf("a[5] = %v, want 99", g[0])
			}
			tm.ReleaseLock(0)
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinMessageFormula(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		sys := newTestSystem(n)
		const loops = 7
		if err := sys.Run(func(tm *Tmk) {
			for k := 0; k < loops; k++ {
				if tm.ID() == 0 {
					tm.Fork(k, 16)
					tm.Collect()
				} else {
					got := tm.WaitFork()
					if got.(int) != k {
						t.Errorf("ctrl = %v, want %d", got, k)
					}
					tm.Join()
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		want := int64(loops * 2 * (n - 1))
		if got := sys.Stats().MsgsOf(stats.KindBarrier); got != want {
			t.Errorf("n=%d: fork-join msgs = %d, want %d (2(n-1) per loop)", n, got, want)
		}
	}
}

func TestForkJoinPropagatesWrites(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 4096)
		n := tm.NProcs()
		chunk := 4096 / n
		for k := 0; k < 3; k++ {
			if tm.ID() == 0 {
				tm.Fork(nil, 8)
				w := r.Write(0, chunk)
				for i := 0; i < chunk; i++ {
					w[i] = float32(k)
				}
				tm.Collect()
				// Master reads everything in the sequential section.
				g := r.Read(0, 4096)
				for i := 0; i < 4096; i++ {
					if g[i] != float32(k) {
						t.Errorf("iter %d: a[%d] = %v, want %d", k, i, g[i], k)
						return
					}
				}
			} else {
				tm.WaitFork()
				lo := tm.ID() * chunk
				w := r.Write(lo, lo+chunk)
				for i := lo; i < lo+chunk; i++ {
					w[i-lo] = float32(k)
				}
				tm.Join()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggregatedFetchMessageCount(t *testing.T) {
	const pages = 8
	run := func(aggregated bool) int64 {
		sys := newTestSystem(2)
		if err := sys.Run(func(tm *Tmk) {
			r := Alloc[float32](tm, "a", pages*1024)
			if tm.ID() == 0 {
				w := r.Write(0, pages*1024)
				for i := range w[:pages*1024] {
					w[i] = 5
				}
			}
			tm.Barrier()
			if tm.ID() == 1 {
				var g []float32
				if aggregated {
					g = r.ReadAggregated(0, pages*1024)
				} else {
					g = r.Read(0, pages*1024)
				}
				if g[pages*1024-1] != 5 {
					t.Error("bad data")
				}
			}
			tm.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return sys.Stats().MsgsOf(stats.KindDiffReq)
	}
	if got := run(false); got != pages {
		t.Errorf("per-page faults: %d requests, want %d", got, pages)
	}
	if got := run(true); got != 1 {
		t.Errorf("aggregated: %d requests, want 1", got)
	}
}

func TestBroadcastRegion(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "v", 1024)
		if tm.ID() == 2 {
			w := r.Write(0, 1024)
			for i := range w[:1024] {
				w[i] = 3.5
			}
		}
		BroadcastRegion(tm, r, 0, 1024, 2)
		g := r.Read(0, 1024)
		if g[500] != 3.5 {
			t.Errorf("proc %d: v[500] = %v, want 3.5", tm.ID(), g[500])
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Stats()
	if got := s.MsgsOf(stats.KindDiffReq); got != 0 {
		t.Errorf("diff requests = %d, want 0 after broadcast", got)
	}
	if got := s.MsgsOf(stats.KindPage); got != 3 {
		t.Errorf("broadcast msgs = %d, want n-1 = 3", got)
	}
}

// TestBroadcastSettlesEveryWriterOfThePage: a page two processes wrote
// is broadcast whole by the second. A receiver then holds the root's
// copy, the first writer's data included, so the first writer's notice
// must cause no fault — whether the receiver heard it before the
// broadcast (a barrier: MGS's initialization) or hears it afterwards (the
// write reached the root alone, through a lock). Settling the root's
// intervals only, the homeless protocol answers that notice with the
// first writer's diff and lays it over the root's newer half; the read
// that follows fails here, not at an end checksum. When the first
// writer then writes the page again, the receiver must fetch that write
// alone, not the writer's chain from the start. A broadcast of half the
// page settles nothing, so a receiver that never validated the page
// repairs it inside the broadcast (one fault) and lays the broadcast
// half over the repair; repairing it later, at the read, would lay the
// first writer's diff over the root's half.
func TestBroadcastSettlesEveryWriterOfThePage(t *testing.T) {
	const elems = model.PageSize / 4
	cases := []struct {
		hears  string
		hi     int
		faults int64
	}{{"before", elems, 0}, {"after", elems, 0}, {"before", elems / 2, 1}}
	for _, prot := range proto.Names() {
		for _, tc := range cases {
			hears := tc.hears
			sys := NewSystem(3, model.SP2(), WithProtocol(prot))
			err := sys.Run(func(tm *Tmk) {
				r := Alloc[float32](tm, "v", elems)
				fill := func(w []float32, v float32) {
					for i := range w {
						w[i] = v
					}
				}
				check := func(when string, last float32) {
					g := r.Read(0, elems)
					if g[0] != 2 || g[elems-1] != last {
						t.Errorf("%s, notice heard %s the broadcast: proc %d reads v[0]=%v v[%d]=%v %s, want 2 and %v",
							prot, hears, tm.ID(), g[0], elems-1, g[elems-1], when, last)
					}
				}
				if hears == "before" {
					if tm.ID() == 0 {
						fill(r.Write(0, elems), 1)
					}
					tm.Barrier()
					if tm.ID() == 1 {
						fill(r.Write(0, elems/2), 2)
					}
				} else {
					switch tm.ID() {
					case 0:
						tm.AcquireLock(0)
						fill(r.Write(0, elems), 1)
						tm.ReleaseLock(0)
					case 1:
						tm.Advance(sim.Millisecond) // after process 0's release
						tm.AcquireLock(0)
						fill(r.Write(0, elems/2), 2)
						tm.ReleaseLock(0)
					}
				}
				BroadcastRegion(tm, r, 0, tc.hi, 1)
				if got := tm.nd.prot.Counters().Faults; tm.ID() == 2 && got != tc.faults {
					t.Errorf("%s, notice heard %s a broadcast of [0,%d): the receiver took %d faults in it, want %d",
						prot, hears, tc.hi, got, tc.faults)
				}
				check("after the broadcast", 1)
				tm.Barrier()
				check("after the next barrier", 1)
				if tm.ID() == 2 && tc.hi == elems && tm.nd.prot.Counters().Faults != 0 {
					t.Errorf("%s, notice heard %s the broadcast: the receiver took %d faults on a page it was sent whole",
						prot, hears, tm.nd.prot.Counters().Faults)
				}
				if tm.ID() == 0 {
					fill(r.Write(elems/2, elems), 3)
				}
				tm.Barrier()
				check("after the first writer's second write", 3)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPushOnBarrier(t *testing.T) {
	sys := newTestSystem(2)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024)
		if tm.ID() == 0 {
			PushOnBarrier(tm, r, 0, 1024, 1)
		} else {
			tm.ExpectPushOnBarrier(0)
		}
		for k := 0; k < 3; k++ {
			if tm.ID() == 0 {
				w := r.Write(0, 1024)
				for i := range w[:1024] {
					w[i] = float32(k + 1)
				}
			}
			tm.Barrier()
			if tm.ID() == 1 {
				g := r.Read(0, 1024)
				if g[9] != float32(k+1) {
					t.Errorf("iter %d: a[9] = %v", k, g[9])
				}
			}
			tm.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().MsgsOf(stats.KindDiffReq); got != 0 {
		t.Errorf("diff requests = %d, want 0 with push", got)
	}
}

func TestGCSquashBoundsRecords(t *testing.T) {
	sys := newTestSystem(2)
	// Run well past two squashes.
	rounds := proto.GCThreshold*2 + 5
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024)
		for k := 0; k < rounds; k++ {
			if tm.ID() == 0 {
				w := r.Write(0, 1024)
				w[k%1024] = float32(k + 1)
			}
			tm.Barrier()
			if tm.ID() == 1 {
				// Read every round so diffs are extracted every interval
				// (no accumulation) and records pile up.
				g := r.Read(0, 1024)
				if g[k%1024] != float32(k+1) {
					t.Errorf("round %d: bad value %v", k, g[k%1024])
				}
			}
			tm.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		sys := newTestSystem(4)
		if err := sys.Run(func(tm *Tmk) {
			r := Alloc[float32](tm, "a", 4096)
			n := tm.NProcs()
			chunk := 4096 / n
			for k := 0; k < 4; k++ {
				lo := tm.ID() * chunk
				w := r.Write(lo, lo+chunk)
				for i := lo; i < lo+chunk; i++ {
					w[i-lo] = float32(k*10 + tm.ID())
				}
				tm.AcquireLock(0)
				s := r.Write(4095, 4096)
				s[0]++
				tm.ReleaseLock(0)
				tm.Barrier()
				r.Read(0, 4096)
				tm.Barrier()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return sys.Stats().TotalMsgs(), sys.Stats().TotalBytes()
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", m1, b1, m2, b2)
	}
}

// TestConvergesToSequential is a property test: arbitrary disjoint write
// patterns across processes and rounds must produce exactly the array a
// sequential execution produces.
func TestConvergesToSequential(t *testing.T) {
	f := func(seed [8]uint8) bool {
		const n, size, rounds = 4, 2048, 3
		want := make([]float32, size)
		for k := 0; k < rounds; k++ {
			for p := 0; p < n; p++ {
				stride := int(seed[(k*n+p)%8])%5 + 1
				for i := p; i < size; i += n * stride {
					want[i] = float32(k*100 + p + int(seed[p%8]))
				}
			}
		}
		got := make([]float32, size)
		ok := true
		sys := newTestSystem(n)
		if err := sys.Run(func(tm *Tmk) {
			r := Alloc[float32](tm, "a", size)
			for k := 0; k < rounds; k++ {
				p := tm.ID()
				stride := int(seed[(k*n+p)%8])%5 + 1
				w := r.Write(0, size) // whole-array writes: heavy false sharing
				for i := p; i < size; i += n * stride {
					w[i] = float32(k*100 + p + int(seed[p%8]))
				}
				tm.Barrier()
			}
			g := r.Read(0, size)
			if tm.ID() == 0 {
				copy(got, g[:size])
			}
			tm.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("mismatch at %d: got %v want %v", i, got[i], want[i])
				ok = false
				break
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBarrierReduceSum(t *testing.T) {
	sys := newTestSystem(8)
	err := sys.Run(func(tm *Tmk) {
		got := tm.BarrierReduceSum([]float64{float64(tm.ID()), 1})
		if got[0] != 28 || got[1] != 8 {
			t.Errorf("proc %d: reduce = %v, want [28 8]", tm.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComplexRegion(t *testing.T) {
	sys := newTestSystem(2)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[complex128](tm, "c", 256) // exactly one page
		if tm.ID() == 0 {
			w := r.Write(0, 256)
			for i := range w[:256] {
				w[i] = complex(float64(i), -float64(i))
			}
		}
		tm.Barrier()
		g := r.Read(0, 256)
		if g[17] != complex(17, -17) {
			t.Errorf("c[17] = %v", g[17])
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegionGeometry(t *testing.T) {
	sys := newTestSystem(1)
	err := sys.Run(func(tm *Tmk) {
		f := Alloc[float32](tm, "f", 1500)
		if f.ElemsPerPage() != 1024 {
			t.Errorf("f32 epp = %d, want 1024", f.ElemsPerPage())
		}
		if f.Pages() != 2 {
			t.Errorf("1500 f32 = %d pages, want 2", f.Pages())
		}
		c := Alloc[complex128](tm, "c", 256)
		if c.ElemsPerPage() != 256 {
			t.Errorf("c128 epp = %d, want 256", c.ElemsPerPage())
		}
		if c.pageOf(0) != f.pageOf(0)+2 {
			t.Errorf("regions overlap: %d vs %d", c.pageOf(0), f.pageOf(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShutdownTrafficNotCounted(t *testing.T) {
	sys := newTestSystem(4)
	if err := sys.Run(func(tm *Tmk) {}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().TotalMsgs(); got != 0 {
		t.Errorf("empty program counted %d messages", got)
	}
	if got := sys.Stats().MsgsOf(stats.KindShutdown); got == 0 {
		t.Error("expected shutdown traffic to be recorded under its own kind")
	}
}

func TestFaultAndTwinCounters(t *testing.T) {
	sys := newTestSystem(2)
	var twins, faults int64
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 1024)
		if tm.ID() == 0 {
			w := r.Write(0, 1024)
			w[0] = 1
		}
		tm.Barrier()
		if tm.ID() == 1 {
			r.Read(0, 1024)
			faults = tm.nd.prot.Counters().Faults
		}
		if tm.ID() == 0 {
			twins = tm.nd.prot.Counters().Twins
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if twins != 1 {
		t.Errorf("twins = %d, want 1", twins)
	}
	if faults != 1 {
		t.Errorf("faults = %d, want 1", faults)
	}
}

// TestLockChainUnderContention: all processes hammer one lock; the
// manager/last-requester chain must serialize correctly and every
// increment must survive.
func TestLockChainUnderContention(t *testing.T) {
	sys := newTestSystem(8)
	const rounds = 20
	err := sys.Run(func(tm *Tmk) {
		c := Alloc[int64](tm, "c", 8)
		for k := 0; k < rounds; k++ {
			tm.AcquireLock(5)
			w := c.Write(0, 1)
			w[0]++
			tm.ReleaseLock(5)
		}
		tm.Barrier()
		g := c.Read(0, 1)
		if g[0] != 8*rounds {
			t.Errorf("proc %d: counter = %d, want %d", tm.ID(), g[0], 8*rounds)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTwoLocksIndependent: different locks have different managers and
// must not interfere.
func TestTwoLocksIndependent(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		a := Alloc[int64](tm, "a", 8)
		b := Alloc[int64](tm, "b", 512) // second page
		for k := 0; k < 5; k++ {
			if tm.ID()%2 == 0 {
				tm.AcquireLock(2)
				w := a.Write(0, 1)
				w[0]++
				tm.ReleaseLock(2)
			} else {
				tm.AcquireLock(3)
				w := b.Write(0, 1)
				w[0] += 10
				tm.ReleaseLock(3)
			}
		}
		tm.Barrier()
		ga := a.Read(0, 1)
		gb := b.Read(0, 1)
		if ga[0] != 10 || gb[0] != 100 {
			t.Errorf("proc %d: a=%d b=%d, want 10/100", tm.ID(), ga[0], gb[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadAggregatedRangesCorrectness: strided-range aggregation must
// deliver exactly what per-page faulting delivers.
func TestReadAggregatedRangesCorrectness(t *testing.T) {
	sys := newTestSystem(4)
	const pages = 16
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", pages*1024)
		lo, hi := tm.ID()*pages/4, (tm.ID()+1)*pages/4
		w := r.Write(lo*1024, hi*1024)
		for i := lo * 1024; i < hi*1024; i++ {
			w[i-lo*1024] = float32(i)
		}
		tm.Barrier()
		if tm.ID() == 0 {
			// Every fourth page, via range list.
			var ranges [][2]int
			for pg := 0; pg < pages; pg += 4 {
				ranges = append(ranges, [2]int{pg * 1024, (pg + 1) * 1024})
			}
			r.ReadAggregatedRanges(ranges)
			faults := tm.nd.prot.Counters().Faults
			for _, rg := range ranges {
				g := r.Read(rg[0], rg[1]) // valid already: a view, no fault
				i := rg[0] + 7
				if g[i-rg[0]] != float32(i) {
					t.Errorf("a[%d] = %v, want %v", i, g[i-rg[0]], float32(i))
				}
			}
			if tm.nd.prot.Counters().Faults != faults {
				t.Errorf("Reads after ReadAggregatedRanges took %d faults", tm.nd.prot.Counters().Faults-faults)
			}
		}
		tm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierReduceMatchesLockReduce: the §8 extension computes the same
// sum the lock-based §2.1 scheme does.
func TestBarrierReduceMatchesLockReduce(t *testing.T) {
	sys := newTestSystem(8)
	err := sys.Run(func(tm *Tmk) {
		shared := Alloc[float64](tm, "s", 8)
		part := float64(tm.ID()*tm.ID() + 1)
		tm.AcquireLock(9)
		w := shared.Write(0, 1)
		w[0] += part
		tm.ReleaseLock(9)
		tm.Barrier()
		viaLock := shared.Read(0, 1)[0]
		viaBarrier := tm.BarrierReduceSum([]float64{part})[0]
		if viaLock != viaBarrier {
			t.Errorf("lock-based %v != barrier-merged %v", viaLock, viaBarrier)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMixedBarrierAndForkJoin: interleaving full barriers with the
// split fork/join interface must keep sequence numbers and consistency
// consistent.
func TestMixedBarrierAndForkJoin(t *testing.T) {
	sys := newTestSystem(4)
	err := sys.Run(func(tm *Tmk) {
		r := Alloc[int64](tm, "x", 512)
		if tm.ID() == 0 {
			w := r.Write(0, 1)
			w[0] = 11
			tm.Barrier() // plain barrier first
			tm.Fork(nil, 8)
			tm.Collect()
			tm.Barrier()
		} else {
			tm.Barrier()
			tm.WaitFork()
			g := r.Read(0, 1)
			if g[0] != 11 {
				t.Errorf("worker %d sees %d, want 11", tm.ID(), g[0])
			}
			tm.Join()
			tm.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierMessagesReusedOnlyOnceRead drives every barrier form with
// staggered compute, so that arrivals reach the manager in changing
// orders. It has a worker follow a Join at once with another arrival —
// a BarrierReduceSum each round, and the teardown barrier after the
// last Join — before the master's Collect has read the first, and the
// master send two Forks before any worker has read the first. A node
// refills a barrier message only once its reader has marked it read;
// one refilled any sooner loses the Join's write notices, a
// contribution or a Fork payload. So every write must reach its
// reader, every reduction must be exact and every Fork payload must
// stay what it was sent as.
func TestBarrierMessagesReusedOnlyOnceRead(t *testing.T) {
	const nodes, rounds, epp = 5, 6, 512 // a block per node, a page each
	for _, p := range proto.Names() {
		t.Run(string(p), func(t *testing.T) {
			err := NewSystem(nodes, model.SP2(), WithProtocol(p)).Run(func(tm *Tmk) {
				id := tm.ID()
				// The parallel loops write fj, the barrier phases bar, so
				// that a node's next write to a block is ordered after
				// every read of it.
				fj := Alloc[float64](tm, "fj", nodes*epp)
				bar := Alloc[float64](tm, "bar", nodes*epp)
				stagger := func(k int) { tm.Advance(sim.Time((id*7+k*3)%nodes) * 50 * sim.Microsecond) }
				write := func(r *Region[float64], v float64) {
					w := r.Write(id*epp, (id+1)*epp)
					for i := range w {
						w[i] = v + float64(i)
					}
				}
				check := func(r *Region[float64], k, q int, v float64) {
					g := r.Read(q*epp, (q+1)*epp)
					for i := range g {
						if g[i] != v+float64(i) {
							t.Errorf("round %d, %s: node %d reads %v at %d of node %d's block, want %v", k, r.name, id, g[i], i, q, v+float64(i))
							return
						}
					}
				}
				// forkJoin is one parallel loop: every node writes its
				// block, and the master reads them all after Collect.
				var held []*int
				forkJoin := func(k int) {
					if id == 0 {
						ctrl := k
						tm.Fork(&ctrl, 8)
						write(fj, float64(100*k))
						tm.Advance(sim.Time(k%2+1) * sim.Millisecond) // the workers' next arrivals are sent first
						tm.Collect()
						for q := 0; q < nodes; q++ {
							check(fj, k, q, float64(100*k))
						}
						return
					}
					ctrl := tm.WaitFork().(*int)
					held = append(held, ctrl)
					stagger(k)
					write(fj, float64(100*k))
					tm.Join()
				}
				if id == 0 {
					first, second := -1, -2
					tm.Fork(&first, 8)
					tm.Fork(&second, 8)
				} else {
					tm.Advance(sim.Millisecond)
					for _, want := range []int{-1, -2} {
						if got := *tm.WaitFork().(*int); got != want {
							t.Errorf("node %d: Fork payload %d, want %d", id, got, want)
						}
					}
				}
				for k := 1; k <= rounds; k++ {
					forkJoin(k)
					got := tm.BarrierReduceSum([]float64{float64(k * (id + 1)), 0.5})
					if want := []float64{float64(k * nodes * (nodes + 1) / 2), 0.5 * nodes}; got[0] != want[0] || got[1] != want[1] {
						t.Errorf("round %d: node %d reduces to %v, want %v", k, id, got, want)
					}
					stagger(k + 1)
					write(bar, float64(-100*k))
					tm.Barrier()
					check(bar, k, (id+1)%nodes, float64(-100*k))
				}
				forkJoin(rounds + 1) // the teardown barrier follows the workers' Join
				for i, c := range held {
					if *c != i+1 {
						t.Errorf("node %d: payload of fork %d reads %d", id, i+1, *c)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestManyRegionsIndependent: pages of different regions never alias.
func TestManyRegionsIndependent(t *testing.T) {
	sys := newTestSystem(2)
	err := sys.Run(func(tm *Tmk) {
		regs := make([]*Region[float32], 10)
		for i := range regs {
			regs[i] = Alloc[float32](tm, "r", 100)
		}
		if tm.ID() == 0 {
			for i, r := range regs {
				w := r.Write(0, 100)
				w[0] = float32(i + 1)
			}
		}
		tm.Barrier()
		for i, r := range regs {
			g := r.Read(0, 100)
			if g[0] != float32(i+1) {
				t.Errorf("region %d: got %v", i, g[0])
			}
			if g[1] != 0 {
				t.Errorf("region %d: neighbor element dirtied: %v", i, g[1])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLateRegistrationKeepsPageState: a region allocated mid-program,
// after others have been written and synchronized (as spf.NewReduction
// does), grows every per-page protocol table past its capacity, so the
// tables move. What the earlier region's pages held must move with
// them: write notices heard before the registration still fault, the
// multiple writers' diffs and applied vectors still settle. The run must
// match one that allocates the late region first, in checksum and in
// every protocol counter, under both protocols.
func TestLateRegistrationKeepsPageState(t *testing.T) {
	const n, apages, bpages = 3, 6, 48 // b is far larger than a's tables' spare room
	const epp, stripe = model.PageSize / 4, model.PageSize / 4 / n
	for _, prot := range proto.Names() {
		run := func(late bool) (float64, proto.Counters) {
			sys := NewSystem(n, model.SP2(), WithProtocol(prot))
			var sum float64
			err := sys.Run(func(tm *Tmk) {
				var b *Region[float64]
				allocB := func() { b = Alloc[float64](tm, "b", bpages*model.PageSize/8) }
				if !late {
					allocB()
				}
				a := Alloc[float32](tm, "a", apages*epp)
				// Every node writes its stripe of every page of a: each
				// page has n writers.
				write := func(v func(pg int) float32) {
					for pg := 0; pg < apages; pg++ {
						lo := pg*epp + tm.ID()*stripe
						w := a.Write(lo, lo+stripe)
						for i := range w {
							w[i] = v(pg) + float32(i)
						}
					}
				}
				write(func(pg int) float32 { return float32(10*pg + tm.ID()) })
				tm.Barrier() // every node now holds notices for every page of a
				if late {
					allocB()
				}
				g := a.Read(0, apages*epp) // faults on every page
				next := (tm.ID() + 1) % n
				neighbor := make([]float32, apages)
				for pg := range neighbor {
					neighbor[pg] = g[pg*epp+next*stripe]
				}
				write(func(pg int) float32 { return 100 + neighbor[pg] })
				tm.Barrier()
				b.Write(tm.ID(), tm.ID()+1)[0] = float64(tm.ID() + 1)
				tm.Barrier()
				if tm.ID() == 0 {
					for _, v := range a.Read(0, apages*epp) {
						sum += float64(v)
					}
					for _, v := range b.Read(0, n) {
						sum += v
					}
				}
			})
			if err != nil {
				t.Fatalf("%s, late=%v: %v", prot, late, err)
			}
			return sum, sys.ProtocolCounters()
		}
		earlySum, earlyCtr := run(false)
		lateSum, lateCtr := run(true)
		if lateSum != earlySum {
			t.Errorf("%s: checksum %v with the late region, %v with it allocated first", prot, lateSum, earlySum)
		}
		if lateCtr != earlyCtr {
			t.Errorf("%s: counters %+v with the late region, %+v with it allocated first", prot, lateCtr, earlyCtr)
		}
		if earlyCtr.Faults == 0 || earlyCtr.DiffsApplied == 0 {
			t.Errorf("%s: counters %+v: the run took no faults or applied no diffs", prot, earlyCtr)
		}
	}
}

// TestWriteValidationPanicsOutOfRange guards the access-check API.
func TestWriteValidationPanicsOutOfRange(t *testing.T) {
	sys := newTestSystem(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range validation")
		}
	}()
	_ = sys.Run(func(tm *Tmk) {
		r := Alloc[float32](tm, "a", 100)
		r.Write(0, 5000)
	})
}

// TestBreakdownAttribution: a traced run's per-node breakdown
// (obs.Attribute over each process's window) charges the waits each
// node actually took to the matching category.
func TestBreakdownAttribution(t *testing.T) {
	costs := model.SP2()
	costs.Trace = obs.New()
	sys := NewSystem(2, costs)
	windows := make([][2]int64, 2)
	err := sys.Run(func(tm *Tmk) {
		windows[tm.ID()][0] = int64(tm.Now())
		r := Alloc[float32](tm, "a", 2048)
		if tm.ID() == 0 {
			w := r.Write(0, 2048)
			for i := range w[:2048] {
				w[i] = 1
			}
		}
		tm.AcquireLock(0)
		tm.ReleaseLock(0)
		tm.Barrier()
		if tm.ID() == 1 {
			r.Read(0, 2048)
		}
		tm.Barrier()
		windows[tm.ID()][1] = int64(tm.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	bds := costs.Trace.Attribute(windows)
	if bds[1].Fault <= 0 {
		t.Error("reader has no fault time")
	}
	for _, b := range bds {
		if b.Barrier <= 0 {
			t.Errorf("node %d has no barrier time", b.Node)
		}
	}
	// Node 1 acquires lock 0 remotely (manager is node 0).
	if bds[1].Lock <= 0 {
		t.Error("remote acquirer has no lock time")
	}
}
