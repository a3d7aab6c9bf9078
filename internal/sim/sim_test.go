package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func testConfig(n int) Config {
	return Config{
		Procs:        n,
		Latency:      40 * Microsecond,
		NanosPerByte: 28.6,
		SendOverhead: 15 * Microsecond,
		RecvOverhead: 15 * Microsecond,
		HeaderBytes:  32,
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New(testConfig(1))
	var end Time
	if err := c.Run(func(p *Proc) {
		p.Advance(5 * Microsecond)
		p.Advance(10 * Microsecond)
		p.Advance(85 * Microsecond)
		end = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if end != 100*Microsecond {
		t.Fatalf("clock = %v, want 100µs", end)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	c := New(testConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative Advance")
		}
	}()
	_ = c.Run(func(p *Proc) { p.Advance(-1) })
}

func TestSelfSendPanics(t *testing.T) {
	c := New(testConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-send")
		}
	}()
	_ = c.Run(func(p *Proc) { p.Send(0, 1, nil, 0, stats.KindData) })
}

func TestPingPongTiming(t *testing.T) {
	cfg := testConfig(2)
	c := New(cfg)
	var t0Recv, t1Recv Time
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 7, "ping", 100, stats.KindData)
			m := p.Recv(1, 8)
			if m.Payload.(string) != "pong" {
				t.Errorf("bad payload %v", m.Payload)
			}
			t0Recv = p.Now()
		case 1:
			p.Recv(0, 7)
			t1Recv = p.Now()
			p.Send(0, 8, "pong", 100, stats.KindData)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// One-way: send overhead + latency + (100+32)*28.6ns + recv overhead.
	oneWay := cfg.SendOverhead + cfg.Latency + Time(float64(132)*cfg.NanosPerByte) + cfg.RecvOverhead
	if t1Recv != oneWay {
		t.Errorf("receiver clock = %v, want %v", t1Recv, oneWay)
	}
	if t0Recv != 2*oneWay {
		t.Errorf("round trip clock = %v, want %v", t0Recv, 2*oneWay)
	}
}

func TestRecvClampsForwardOnly(t *testing.T) {
	// A receiver whose clock is already beyond the delivery time must not
	// travel backwards.
	c := New(testConfig(2))
	var got Time
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, nil, 0, stats.KindData)
		case 1:
			p.Advance(Second) // way past delivery
			p.Recv(0, 1)
			got = p.Now()
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := Second + testConfig(2).RecvOverhead
	if got != want {
		t.Errorf("clock = %v, want %v", got, want)
	}
}

func TestMessagesDeliveredInTimestampOrder(t *testing.T) {
	// Two senders at different virtual times; the receiver must see the
	// earlier message first even though the later sender's goroutine may
	// run first in real time.
	c := New(testConfig(3))
	var order []int
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Advance(10 * Millisecond)
			p.Send(2, 1, nil, 0, stats.KindData)
		case 1:
			p.Advance(1 * Millisecond)
			p.Send(2, 1, nil, 0, stats.KindData)
		case 2:
			a := p.Recv(AnySrc, 1)
			b := p.Recv(AnySrc, 1)
			order = []int{a.Src, b.Src}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("delivery order = %v, want [1 0]", order)
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	c := New(testConfig(3))
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(2, 5, "a", 0, stats.KindData)
		case 1:
			p.Send(2, 6, "b", 0, stats.KindData)
		case 2:
			// Ask for tag 6 first even though tag 5 arrives earlier.
			m := p.Recv(AnySrc, 6)
			if m.Payload.(string) != "b" {
				t.Errorf("tag match failed: %v", m.Payload)
			}
			m = p.Recv(0, AnyTag)
			if m.Payload.(string) != "a" {
				t.Errorf("src match failed: %v", m.Payload)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	c := New(testConfig(2))
	err := c.Run(func(p *Proc) {
		p.Recv(AnySrc, AnyTag) // everyone waits forever
	})
	if _, ok := err.(*deadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

func TestStatsRecorded(t *testing.T) {
	c := New(testConfig(2))
	if err := c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil, 1000, stats.KindData)
			p.Send(1, 1, nil, 500, stats.KindBarrier)
			p.Send(1, 2, nil, 9, stats.KindShutdown)
		} else {
			p.Recv(0, 1)
			p.Recv(0, 1)
			p.Recv(0, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if got := s.TotalMsgs(); got != 2 {
		t.Errorf("TotalMsgs = %d, want 2 (shutdown excluded)", got)
	}
	if got := s.TotalBytes(); got != 1000+500+2*32 {
		t.Errorf("TotalBytes = %d, want %d", got, 1000+500+2*32)
	}
	if s.MsgsOf(stats.KindShutdown) != 1 {
		t.Errorf("shutdown msgs = %d, want 1", s.MsgsOf(stats.KindShutdown))
	}
}

// barrierVia implements a flat barrier over raw messages, used both as a
// stress test and as the reference for the message-count formula
// 2*(n-1) that the paper quotes for TreadMarks barriers.
func barrierVia(p *Proc, tag int) {
	n := p.N()
	if p.ID() == 0 {
		for i := 1; i < n; i++ {
			p.Recv(AnySrc, tag)
		}
		for i := 1; i < n; i++ {
			p.Send(i, tag+1, nil, 0, stats.KindBarrier)
		}
	} else {
		p.Send(0, tag, nil, 0, stats.KindBarrier)
		p.Recv(0, tag+1)
	}
}

func TestBarrierMessageCount(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		c := New(testConfig(n))
		if err := c.Run(func(p *Proc) { barrierVia(p, 10) }); err != nil {
			t.Fatal(err)
		}
		want := int64(2 * (n - 1))
		if got := c.Stats().TotalMsgs(); got != want {
			t.Errorf("n=%d: barrier msgs = %d, want %d", n, got, want)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	c := New(testConfig(4))
	ends := make([]Time, 4)
	if err := c.Run(func(p *Proc) {
		p.Advance(Time(p.ID()) * Millisecond) // skewed arrival
		barrierVia(p, 10)
		ends[p.ID()] = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	// After the barrier every proc must be at or beyond the slowest
	// arrival (3ms).
	for i, e := range ends {
		if e < 3*Millisecond {
			t.Errorf("proc %d ended at %v, before slowest arrival", i, e)
		}
	}
}

// TestDeterminism runs a contended workload twice and demands identical
// virtual end times, message totals and per-proc receive orders.
func TestDeterminism(t *testing.T) {
	run := func() (Time, int64, string) {
		c := New(testConfig(8))
		var end Time
		trace := ""
		if err := c.Run(func(p *Proc) {
			n := p.N()
			// Everyone sends to everyone with data-dependent sizes, then
			// a barrier, twice.
			for round := 0; round < 2; round++ {
				for d := 0; d < n; d++ {
					if d != p.ID() {
						p.Send(d, 100+round, nil, 64*(p.ID()+1), stats.KindData)
					}
				}
				for i := 0; i < n-1; i++ {
					m := p.Recv(AnySrc, 100+round)
					if p.ID() == 0 {
						trace += fmt.Sprintf("%d,", m.Src)
					}
				}
				barrierVia(p, 200+10*round)
			}
			if p.ID() == 0 {
				end = p.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return end, c.Stats().TotalMsgs(), trace
	}
	e1, m1, tr1 := run()
	e2, m2, tr2 := run()
	if e1 != e2 || m1 != m2 || tr1 != tr2 {
		t.Errorf("nondeterministic: (%v,%d,%q) vs (%v,%d,%q)", e1, m1, tr1, e2, m2, tr2)
	}
}

// TestCausality uses testing/quick to check that, for random compute
// skews, a receiver never observes a message whose delivery time exceeds
// its own post-receive clock, and sender timestamps are consistent.
func TestCausality(t *testing.T) {
	f := func(skews [6]uint16) bool {
		c := New(testConfig(3))
		ok := true
		err := c.Run(func(p *Proc) {
			switch p.ID() {
			case 0, 1:
				for r := 0; r < 3; r++ {
					p.Advance(Time(skews[p.ID()*3+r]) * Microsecond)
					p.Send(2, 1, nil, int(skews[p.ID()*3+r])%256, stats.KindData)
				}
			case 2:
				var last Time
				for i := 0; i < 6; i++ {
					m := p.Recv(AnySrc, 1)
					if m.Deliver < last {
						ok = false // consumed out of delivery order
					}
					last = m.Deliver
					if p.Now() < m.Deliver {
						ok = false // clock behind the message it consumed
					}
					if m.Deliver <= m.SendTime {
						ok = false // zero/negative transit
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	c := New(testConfig(2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	_ = c.Run(func(p *Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
		p.Recv(AnySrc, AnyTag)
	})
}

// TestRunStopsUnfinishedProcesses checks that no process outlives Run
// when it ends early: after a deadlock and after a panic — in a process
// dispatched last, so the others are suspended, and in one dispatched
// first, so the others never started — every unfinished body has been
// unwound (its deferred calls ran) and its coroutine is gone.
func TestRunStopsUnfinishedProcesses(t *testing.T) {
	const n = 4
	// The previous test's goroutine may still be exiting, so the count
	// can fall below the baseline; a leak only raises it, by about n.
	base := runtime.NumGoroutine()
	unwound := 0
	waitForever := func(p *Proc) {
		defer func() { unwound++ }()
		p.Recv(AnySrc, AnyTag)
	}

	err := New(testConfig(n)).Run(waitForever)
	if _, ok := err.(*deadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if unwound != n {
		t.Errorf("deadlock: %d bodies unwound, want %d", unwound, n)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("deadlock: %d goroutines after Run, %d before", got, base)
	}

	for _, bad := range []int{n - 1, 0} {
		unwound = 0
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("proc %d panics: recovered %v, want boom", bad, r)
				}
			}()
			_ = New(testConfig(n)).Run(func(p *Proc) {
				if p.ID() == bad {
					panic("boom")
				}
				waitForever(p)
			})
		}()
		if unwound != bad {
			t.Errorf("proc %d panics: %d bodies unwound, want %d", bad, unwound, bad)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("proc %d panics: %d goroutines after Run, %d before", bad, got, base)
		}
	}
}

// TestTransferTime: an uncontended message takes Latency plus its wire
// bytes (payload and header) at NanosPerByte from send to delivery.
func TestTransferTime(t *testing.T) {
	c := New(testConfig(2))
	var got Time
	if err := c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 9, nil, 4096, stats.KindData)
			return
		}
		m := p.Recv(0, 9)
		got = m.Deliver - m.SendTime
	}); err != nil {
		t.Fatal(err)
	}
	wire := 4096 + 32
	want := 40*Microsecond + Time(float64(wire)*28.6)
	if got != want {
		t.Errorf("a 4096-byte message took %v, want %v", got, want)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ns",
		2 * Microsecond: "2.000µs",
		3 * Millisecond: "3.000ms",
		2 * Second:      "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestManyProcsStress(t *testing.T) {
	const n, rounds = 16, 50
	c := New(testConfig(n))
	if err := c.Run(func(p *Proc) {
		// Token ring: proc 0 injects hop 1; every proc receives exactly
		// `rounds` tokens and forwards all but the final hop.
		next := (p.ID() + 1) % n
		if p.ID() == 0 {
			p.Send(next, 1, 1, 8, stats.KindData)
		}
		for i := 0; i < rounds; i++ {
			m := p.Recv(AnySrc, 1)
			hops := m.Payload.(int)
			if hops < rounds*n {
				p.Send(next, 1, hops+1, 8, stats.KindData)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().MsgsOf(stats.KindData); got != rounds*n {
		t.Errorf("ring hops = %d, want %d", got, rounds*n)
	}
}

func TestProcStateStringAndAccessors(t *testing.T) {
	for s, want := range map[procState]string{
		stateReady: "ready", stateRunning: "running",
		stateBlocked: "blocked", stateDone: "done", procState(99): "?",
	} {
		if got := s.String(); got != want {
			t.Errorf("procState(%d).String() = %q, want %q", s, got, want)
		}
	}
	cfg := testConfig(2)
	c := New(cfg)
	if c.Config().Procs != 2 {
		t.Errorf("Config().Procs = %d", c.Config().Procs)
	}
	if err := c.Run(func(p *Proc) {
		if p.Cluster() != c {
			t.Error("Proc.Cluster mismatch")
		}
		if p.N() != 2 {
			t.Errorf("Proc.N = %d", p.N())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	c := New(testConfig(2))
	err := c.Run(func(p *Proc) { p.Recv(AnySrc, 7) })
	de, ok := err.(*deadlockError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	msg := de.Error()
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "proc 0") {
		t.Errorf("unhelpful deadlock message: %q", msg)
	}
}
