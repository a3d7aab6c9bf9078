package spf

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tmk"
)

func newSys(n int) *tmk.System { return tmk.NewSystem(n, model.SP2()) }

// runProgram builds a tiny SPF program: a shared array filled by a
// parallel loop, then doubled by a second loop, with the master summing
// sequentially in between.
func runProgram(t *testing.T, n int, opts Options) (*tmk.System, float64) {
	t.Helper()
	sys := newSys(n)
	const size = 4096
	var total float64
	if err := Run(sys, opts, func(rt *Runtime) {
		a := tmk.Alloc[float32](rt.Tmk(), "a", size)
		fill := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			w := a.Write(lo, hi)
			for i := lo; i < hi; i += stride {
				w[i-lo] = float32(int64(i) * args[0])
			}
		})
		double := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			w := a.Write(lo, hi)
			for i := lo; i < hi; i += stride {
				w[i-lo] *= 2
			}
		})
		if rt.IsMaster() {
			rt.ParallelDo(fill, 0, size, Block, 3)
			// Sequential section on the master.
			g := a.Read(0, size)
			var s float64
			for i := 0; i < size; i++ {
				s += float64(g[i])
			}
			rt.ParallelDo(double, 0, size, Block)
			g = a.Read(0, size)
			var s2 float64
			for i := 0; i < size; i++ {
				s2 += float64(g[i])
			}
			if s2 != 2*s {
				t.Errorf("double loop: sum %v, want %v", s2, 2*s)
			}
			total = s
			rt.Done()
		} else {
			rt.Serve()
		}
	}); err != nil {
		t.Fatal(err)
	}
	return sys, total
}

func TestForkJoinProgram(t *testing.T) {
	_, total := runProgram(t, 4, Options{})
	// sum of 3*i for i in [0,4096) = 3*4095*4096/2
	want := 3.0 * 4095 * 4096 / 2
	if total != want {
		t.Errorf("total = %v, want %v", total, want)
	}
}

func TestOldInterfaceSameResult(t *testing.T) {
	_, a := runProgram(t, 4, Options{})
	_, b := runProgram(t, 4, Options{Old: true})
	if a != b {
		t.Errorf("old interface changed the result: %v vs %v", a, b)
	}
}

// TestInterfaceMessageRatio verifies the §2.3 claim: the improved
// interface needs 2(n-1) messages per parallel loop where the original
// needs 8(n-1): two full barriers (4(n-1)) plus two control-page faults
// per worker (4(n-1)).
func TestInterfaceMessageRatio(t *testing.T) {
	const n, loops = 8, 10
	count := func(old bool) int64 {
		sys := newSys(n)
		if err := Run(sys, Options{Old: old}, func(rt *Runtime) {
			nop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {})
			if rt.IsMaster() {
				for k := 0; k < loops; k++ {
					rt.ParallelDo(nop, 0, 64, Block)
				}
				rt.Done()
			} else {
				rt.Serve()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return sys.Stats().TotalMsgs()
	}
	improved := count(false)
	old := count(true)
	// 2(n-1) per loop, plus Done's final fork (departures only: n-1).
	wantImproved := int64(loops*2*(n-1) + (n - 1))
	if improved != wantImproved {
		t.Errorf("improved msgs = %d, want %d", improved, wantImproved)
	}
	// The old interface: per loop 2 barriers = 4(n-1), plus control-page
	// faults. The first loop faults both pages (2 req + 2 resp per
	// worker); later loops re-fault them after invalidation.
	if old < improved*3 {
		t.Errorf("old interface msgs = %d, improved = %d: expected ~4x ratio", old, improved)
	}
	t.Logf("improved=%d old=%d ratio=%.2f", improved, old, float64(old)/float64(improved))
}

func TestCyclicSchedule(t *testing.T) {
	sys := newSys(4)
	const size = 64
	if err := Run(sys, Options{}, func(rt *Runtime) {
		a := tmk.Alloc[int32](rt.Tmk(), "a", size)
		who := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			w := a.Write(0, size)
			for i := lo; i < hi; i += stride {
				w[i] = int32(rt.ID())
			}
		})
		if rt.IsMaster() {
			rt.ParallelDo(who, 0, size, Cyclic)
			g := a.Read(0, size)
			for i := 0; i < size; i++ {
				if g[i] != int32(i%4) {
					t.Errorf("a[%d] written by %d, want %d (cyclic)", i, g[i], i%4)
					break
				}
			}
			rt.Done()
		} else {
			rt.Serve()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceBounds(t *testing.T) {
	cases := []struct {
		id, nprocs, lo, hi         int
		sched                      Sched
		wantLo, wantHi, wantStride int
	}{
		{0, 4, 0, 100, Block, 0, 25, 1},
		{3, 4, 0, 100, Block, 75, 100, 1},
		{3, 4, 0, 10, Block, 9, 10, 1},    // ragged: last chunk short
		{3, 4, 0, 2, Block, 2, 2, 1},      // ragged: empty chunk
		{2, 4, 10, 50, Cyclic, 10, 50, 4}, // aligned: 10%4 == 2
		{0, 1, 0, 5, Block, 0, 5, 1},
	}
	for _, c := range cases {
		lo, hi, st := slice(c.id, c.nprocs, c.lo, c.hi, c.sched)
		if lo != c.wantLo || hi != c.wantHi || st != c.wantStride {
			t.Errorf("slice(%d,%d,%d,%d,%v) = (%d,%d,%d), want (%d,%d,%d)",
				c.id, c.nprocs, c.lo, c.hi, c.sched, lo, hi, st, c.wantLo, c.wantHi, c.wantStride)
		}
	}
}

func TestReduction(t *testing.T) {
	sys := newSys(8)
	if err := Run(sys, Options{}, func(rt *Runtime) {
		red := NewReduction(rt, "sum", func(a, b float64) float64 { return a + b })
		loop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			var partial float64
			for i := lo; i < hi; i += stride {
				partial += float64(i)
			}
			red.Combine(rt, partial)
		})
		if rt.IsMaster() {
			red.Reset(0)
			rt.ParallelDo(loop, 0, 1000, Block)
			if got := red.Value(); got != 999*1000/2 {
				t.Errorf("reduction = %v, want %v", got, 999*1000/2)
			}
			rt.Done()
		} else {
			rt.Serve()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().MsgsOf(stats.KindLock) == 0 {
		t.Error("expected lock traffic from the reduction")
	}
}

func TestLoopArgsDelivered(t *testing.T) {
	sys := newSys(4)
	if err := Run(sys, Options{Old: true}, func(rt *Runtime) {
		got := make([]int64, 3)
		loop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			copy(got, args)
		})
		if rt.IsMaster() {
			rt.ParallelDo(loop, 0, 4, Block, 10, 20, 30)
			rt.Done()
		} else {
			rt.Serve()
		}
		if got[0] != 10 || got[1] != 20 || got[2] != 30 {
			t.Errorf("proc %d: args = %v", rt.ID(), got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicScheduleCorrect: the §8 self-scheduling extension covers
// every iteration exactly once.
func TestDynamicScheduleCorrect(t *testing.T) {
	sys := newSys(4)
	const size = 1000 // deliberately not a multiple of anything handy
	if err := Run(sys, Options{}, func(rt *Runtime) {
		a := tmk.Alloc[int32](rt.Tmk(), "a", size)
		bump := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			w := a.Write(lo, hi)
			for i := lo; i < hi; i += stride {
				w[i-lo]++
			}
		})
		if rt.IsMaster() {
			rt.ParallelDo(bump, 0, size, Dynamic)
			g := a.Read(0, size)
			for i := 0; i < size; i++ {
				if g[i] != 1 {
					t.Errorf("iteration %d executed %d times", i, g[i])
					break
				}
			}
			rt.Done()
		} else {
			rt.Serve()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicBalancesSkewedLoop: with iteration costs growing as i^2,
// static block scheduling leaves the last processor holding most of the
// work; self-scheduling balances it despite the lock traffic.
func TestDynamicBalancesSkewedLoop(t *testing.T) {
	run := func(sched Sched) sim.Time {
		sys := newSys(8)
		var elapsed sim.Time
		if err := Run(sys, Options{}, func(rt *Runtime) {
			// Iteration i costs i^2 ns — heavy enough that the imbalance
			// dwarfs the self-scheduling lock traffic.
			skewed := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
				var cost sim.Time
				for i := lo; i < hi; i += stride {
					cost += sim.Time(i * i)
				}
				rt.Advance(cost)
			})
			if rt.IsMaster() {
				start := rt.Now()
				rt.ParallelDo(skewed, 0, 2000, sched)
				elapsed = rt.Now() - start
				rt.Done()
			} else {
				rt.Serve()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	static := run(Block)
	dynamic := run(Dynamic)
	t.Logf("static=%v dynamic=%v", static, dynamic)
	if dynamic >= static {
		t.Errorf("dynamic scheduling (%v) should beat static block (%v) on a skewed loop", dynamic, static)
	}
}

func TestDynamicChunkSize(t *testing.T) {
	if c := dynChunk(1000, 8); c != 15 {
		t.Errorf("dynChunk(1000,8) = %d, want 15", c)
	}
	if c := dynChunk(3, 8); c != 1 {
		t.Errorf("dynChunk(3,8) = %d, want 1", c)
	}
}
