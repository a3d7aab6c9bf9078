package pvm

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newSys(n int) *System { return NewSystem(n, model.SP2()) }

func TestSendRecv(t *testing.T) {
	sys := newSys(2)
	if err := sys.Run(func(pv *PVM) {
		if pv.ID() == 0 {
			Send(pv, 1, 5, []float32{1, 2, 3})
		} else {
			buf := make([]float32, 3)
			n := Recv(pv, 0, 5, buf)
			if n != 3 || buf[2] != 3 {
				t.Errorf("recv n=%d buf=%v", n, buf)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().MsgsOf(stats.KindData); got != 1 {
		t.Errorf("msgs = %d, want 1", got)
	}
	if got := sys.Stats().BytesOf(stats.KindData); got != 12+32 {
		t.Errorf("bytes = %d, want 44", got)
	}
}

func TestSendSnapshotsBuffer(t *testing.T) {
	sys := newSys(2)
	if err := sys.Run(func(pv *PVM) {
		if pv.ID() == 0 {
			buf := []float32{7}
			Send(pv, 1, 1, buf)
			buf[0] = 99 // must not affect the in-flight message
			Send(pv, 1, 2, buf)
		} else {
			buf := make([]float32, 1)
			Recv(pv, 0, 1, buf)
			if buf[0] != 7 {
				t.Errorf("first message = %v, want 7 (pack must snapshot)", buf[0])
			}
			Recv(pv, 0, 2, buf)
			if buf[0] != 99 {
				t.Errorf("second message = %v, want 99", buf[0])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	sys := newSys(8)
	if err := sys.Run(func(pv *PVM) {
		buf := []float64{0}
		if pv.ID() == 3 {
			buf[0] = 42
		}
		Bcast(pv, 3, 9, buf)
		if buf[0] != 42 {
			t.Errorf("proc %d: bcast value %v", pv.ID(), buf[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().MsgsOf(stats.KindData); got != 7 {
		t.Errorf("bcast msgs = %d, want n-1 = 7", got)
	}
}

func TestExchange(t *testing.T) {
	sys := newSys(2)
	if err := sys.Run(func(pv *PVM) {
		me := float32(pv.ID())
		recv := make([]float32, 1)
		Exchange(pv, 1-pv.ID(), 4, []float32{me}, recv)
		if recv[0] != float32(1-pv.ID()) {
			t.Errorf("proc %d got %v", pv.ID(), recv[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	sys := newSys(8)
	if err := sys.Run(func(pv *PVM) {
		vals := []float64{float64(pv.ID()), 1}
		out := ReduceSum(pv, 0, 11, vals)
		if pv.ID() == 0 {
			if out[0] != 28 || out[1] != 8 {
				t.Errorf("reduce = %v, want [28 8]", out)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	sys := newSys(4)
	if err := sys.Run(func(pv *PVM) {
		out := AllReduceSum(pv, 20, []int64{int64(pv.ID() + 1)})
		if out[0] != 10 {
			t.Errorf("proc %d: allreduce = %v, want 10", pv.ID(), out[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	sys := newSys(4)
	if err := sys.Run(func(pv *PVM) {
		for i := 0; i < 3; i++ {
			pv.Barrier(100 + 2*i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// 3 barriers * 2*(n-1) messages.
	if got := sys.Stats().TotalMsgs(); got != 18 {
		t.Errorf("barrier msgs = %d, want 18", got)
	}
}

func TestPackCostCharged(t *testing.T) {
	costs := model.SP2()
	sys := NewSystem(2, costs)
	var sendTime int64
	if err := sys.Run(func(pv *PVM) {
		if pv.ID() == 0 {
			big := make([]float64, 100000)
			Send(pv, 1, 1, big)
			sendTime = int64(pv.Now())
		} else {
			buf := make([]float64, 100000)
			Recv(pv, 0, 1, buf)
		}
	}); err != nil {
		t.Fatal(err)
	}
	wantMin := int64(costs.PackCost(800000)) + int64(costs.SendOverhead)
	if sendTime < wantMin {
		t.Errorf("send time %d < pack+overhead %d: pack cost not charged", sendTime, wantMin)
	}
}

func TestDeterministicWildcardRecv(t *testing.T) {
	run := func() string {
		sys := newSys(4)
		order := ""
		if err := sys.Run(func(pv *PVM) {
			if pv.ID() == 0 {
				buf := make([]int32, 1)
				for i := 0; i < 3; i++ {
					Recv(pv, anySrc, 7, buf)
					order += string(rune('0' + buf[0]))
				}
			} else {
				pv.Advance(sim.Time(1000 * pv.ID() * pv.ID()))
				Send(pv, 0, 7, []int32{int32(pv.ID())})
			}
		}); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic wildcard order: %q vs %q", a, b)
	}
}

func TestReduceWithMax(t *testing.T) {
	sys := newSys(8)
	if err := sys.Run(func(pv *PVM) {
		out := Reduce(pv, 0, 30, []float64{float64(pv.ID() * pv.ID())},
			func(a, b float64) float64 { return max(a, b) })
		if pv.ID() == 0 && out[0] != 49 {
			t.Errorf("max reduce = %v, want 49", out[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceMin(t *testing.T) {
	sys := newSys(4)
	if err := sys.Run(func(pv *PVM) {
		out := AllReduce(pv, 32, []float32{float32(10 - pv.ID())},
			func(a, b float32) float32 { return min(a, b) })
		if out[0] != 7 {
			t.Errorf("proc %d: min allreduce = %v, want 7", pv.ID(), out[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierSilentUntracked: boundary barriers must not pollute the
// Table 2/3 totals.
func TestBarrierSilentUntracked(t *testing.T) {
	sys := newSys(8)
	if err := sys.Run(func(pv *PVM) {
		pv.BarrierSilent(40)
		pv.BarrierSilent(42)
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().TotalMsgs(); got != 0 {
		t.Errorf("silent barriers counted %d messages", got)
	}
	if got := sys.Stats().MsgsOf(stats.KindShutdown); got != 2*2*7 {
		t.Errorf("untracked msgs = %d, want %d", got, 2*2*7)
	}
}

func TestUntrackedTransfer(t *testing.T) {
	sys := newSys(2)
	if err := sys.Run(func(pv *PVM) {
		if pv.ID() == 0 {
			SendUntracked(pv, 1, 50, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			if n := RecvUntracked(pv, 0, 50, buf); n != 3 || buf[2] != 3 {
				t.Errorf("untracked recv n=%d buf=%v", n, buf)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().TotalMsgs(); got != 0 {
		t.Errorf("untracked transfer counted %d messages", got)
	}
}

// TestGatherUntracked: task 0 gets every task's block in task order —
// ragged and empty ones included — nobody else gets anything, and none
// of it counts as traffic.
func TestGatherUntracked(t *testing.T) {
	const n = 5
	sys := newSys(n)
	if err := sys.Run(func(pv *PVM) {
		mine := make([]int32, pv.ID()%3) // lengths 0,1,2,0,1
		for i := range mine {
			mine[i] = int32(10*pv.ID() + i)
		}
		blocks := GatherUntracked(pv, 60, mine)
		if pv.ID() != 0 {
			if blocks != nil {
				t.Errorf("task %d: got %d blocks", pv.ID(), len(blocks))
			}
			return
		}
		if len(blocks) != n {
			t.Fatalf("task 0: %d blocks, want %d", len(blocks), n)
		}
		for q, b := range blocks {
			if len(b) != q%3 || (len(b) > 0 && b[len(b)-1] != int32(10*q+len(b)-1)) {
				t.Errorf("block %d = %v", q, b)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().TotalMsgs(); got != 0 {
		t.Errorf("untracked gather counted %d messages", got)
	}
	if got := sys.Stats().MsgsOf(stats.KindShutdown); got != n-1 {
		t.Errorf("untracked msgs = %d, want %d", got, n-1)
	}
}

func TestAccessors(t *testing.T) {
	sys := newSys(3)
	if sys.NProcs() != 3 {
		t.Errorf("System.NProcs = %d", sys.NProcs())
	}
	if sys.Costs().Latency <= 0 {
		t.Error("System.Costs not wired")
	}
	if err := sys.Run(func(pv *PVM) {
		if pv.NProcs() != 3 {
			t.Errorf("PVM.NProcs = %d", pv.NProcs())
		}
		if pv.Costs().Latency != sys.Costs().Latency {
			t.Error("PVM.Costs mismatch")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestComplexScalars(t *testing.T) {
	sys := newSys(2)
	if err := sys.Run(func(pv *PVM) {
		if pv.ID() == 0 {
			Send(pv, 1, 60, []complex128{complex(1, 2)})
		} else {
			buf := make([]complex128, 1)
			Recv(pv, 0, 60, buf)
			if buf[0] != complex(1, 2) {
				t.Errorf("complex transfer got %v", buf[0])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
