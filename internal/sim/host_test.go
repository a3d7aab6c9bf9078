package sim

import (
	"testing"

	"repro/internal/stats"
)

// TestHostStats checks the host-side counters: a ping-pong run counts
// its deliveries and its peak queue depth, the per-cluster numbers fold
// into the process totals, and the counters never touch virtual time.
func TestHostStats(t *testing.T) {
	run := func() (*Cluster, Time) {
		c := New(Config{Procs: 2, Latency: 10 * Microsecond})
		var end Time
		err := c.Run(func(p *Proc) {
			const rounds = 5
			for i := 0; i < rounds; i++ {
				if p.ID() == 0 {
					p.Send(1, 1, nil, 8, stats.KindData)
					p.Recv(1, 2)
				} else {
					p.Recv(0, 1)
					p.Send(0, 2, nil, 8, stats.KindData)
				}
			}
			if p.ID() == 0 {
				end = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, end
	}

	before := HostTotals()
	c1, end1 := run()
	hs := c1.HostStats()
	if hs.Delivered != 10 {
		t.Errorf("Delivered = %d, want 10", hs.Delivered)
	}
	// Ping-pong keeps at most one message in flight.
	if hs.PeakQueue != 1 {
		t.Errorf("PeakQueue = %d, want 1", hs.PeakQueue)
	}
	if hs.Dispatches <= 0 {
		t.Errorf("Dispatches = %d, want > 0", hs.Dispatches)
	}
	after := HostTotals()
	if got := after.Delivered - before.Delivered; got != 10 {
		t.Errorf("global Delivered grew by %d, want 10", got)
	}
	if got := after.Dispatches - before.Dispatches; got != hs.Dispatches {
		t.Errorf("global Dispatches grew by %d, want %d", got, hs.Dispatches)
	}
	if after.PeakQueue < 1 {
		t.Errorf("global PeakQueue = %d, want >= 1", after.PeakQueue)
	}

	// Counting must not perturb the schedule: a second identical run
	// lands on the identical virtual end time.
	_, end2 := run()
	if end1 != end2 {
		t.Errorf("virtual end times differ: %v vs %v", end1, end2)
	}
}

// TestSchedulePinned pins the schedule itself, not only its results: the
// number of dispatches and deliveries of two fixed programs. A scheduler
// change that keeps every virtual time and checksum but hands control
// over more or less often — a different horizon, a different tie-break —
// moves these counts.
func TestSchedulePinned(t *testing.T) {
	// The 8-process ring of BenchmarkSimulatorEventRate, 250 rounds.
	ring := New(Config{
		Procs: 8, Latency: 10 * Microsecond, NanosPerByte: 30,
		SendOverhead: 5 * Microsecond, RecvOverhead: 5 * Microsecond,
	})
	if err := ring.Run(func(p *Proc) {
		for k := 0; k < 250; k++ {
			p.Send((p.ID()+1)%8, 1, nil, 64, stats.KindData)
			p.Recv((p.ID()+7)%8, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := ring.HostStats(), (HostStats{Dispatches: 5258, Delivered: 2000, PeakQueue: 8}); got != want {
		t.Errorf("ring: %+v, want %+v", got, want)
	}

	// The seeded contention stress program: serial NICs, horizon
	// tightening on send, deep inboxes.
	_, _, got := contentionStress(t, 8, 1)
	if want := (HostStats{Dispatches: 766, Delivered: 488, PeakQueue: 38}); got != want {
		t.Errorf("contention stress: %+v, want %+v", got, want)
	}
}
