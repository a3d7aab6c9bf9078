package sim

import (
	"testing"

	"repro/internal/stats"
)

// sendBigThenSmall has proc 0 send a large message and then a tiny one
// to proc 1 back-to-back, and returns the delivery times observed by
// the receiver in *send* order plus the source order in which the
// receiver's wildcard Recv consumed them.
func sendBigThenSmall(t *testing.T, cfg Config) (bigDeliver, smallDeliver Time, firstTag int) {
	t.Helper()
	const big, small = 8192, 0
	c := New(cfg)
	if err := c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil, big, stats.KindData)
			p.Send(1, 2, nil, small, stats.KindData)
			return
		}
		m := p.Recv(AnySrc, AnyTag)
		firstTag = m.Tag
		m2 := p.Recv(AnySrc, AnyTag)
		for _, mm := range []Message{m, m2} {
			if mm.Tag == 1 {
				bigDeliver = mm.Deliver
			} else {
				smallDeliver = mm.Deliver
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return bigDeliver, smallDeliver, firstTag
}

// TestPairOvertakingDefault documents the hazard the FIFOPairs mode
// exists for: on the default infinite-capacity interconnect, a small
// message sent immediately after a large one to the same destination
// overtakes it (its serialization time is shorter than the gap the
// sender's SendOverhead leaves).
func TestPairOvertakingDefault(t *testing.T) {
	big, small, firstTag := sendBigThenSmall(t, testConfig(2))
	if small >= big {
		t.Fatalf("expected overtaking on the default config: small deliver %v, big deliver %v", small, big)
	}
	if firstTag != 2 {
		t.Errorf("wildcard Recv consumed tag %d first, want the overtaking small message (tag 2)", firstTag)
	}
}

// TestFIFOPairsNonOvertaking checks the opt-in guarantee: with
// Config.FIFOPairs set, the small message's delivery is clamped to the
// large one's, messages arrive in send order, and traffic counters are
// untouched.
func TestFIFOPairsNonOvertaking(t *testing.T) {
	cfg := testConfig(2)
	cfg.FIFOPairs = true
	big, small, firstTag := sendBigThenSmall(t, cfg)
	if small != big {
		t.Errorf("FIFOPairs: small message delivered at %v, want clamped to the big message's %v", small, big)
	}
	if firstTag != 1 {
		t.Errorf("FIFOPairs: wildcard Recv consumed tag %d first, want send order (tag 1)", firstTag)
	}

	// The big message itself is unaffected: identical delivery to the
	// default path (only would-be overtakers are clamped).
	bigDefault, _, _ := sendBigThenSmall(t, testConfig(2))
	if big != bigDefault {
		t.Errorf("FIFOPairs moved the first message: %v != default %v", big, bigDefault)
	}
}

// TestFIFOPairsScriptedPatternIdentity runs the reference mixed
// workload of the zero-config bit-identity test with FIFOPairs on: its
// per-pair traffic never overtakes (each round's sends are matched by
// receives before the next), so the mode must leave the schedule — end
// clocks and traffic — bit-identical.
func TestFIFOPairsScriptedPatternIdentity(t *testing.T) {
	base := testConfig(4)
	fifo := testConfig(4)
	fifo.FIFOPairs = true
	ends, msgs, bytes := scriptedPattern(t, base)
	fends, fmsgs, fbytes := scriptedPattern(t, fifo)
	if ends != fends {
		t.Errorf("FIFOPairs changed the scripted pattern's end clocks: %v != %v", fends, ends)
	}
	if msgs != fmsgs || bytes != fbytes {
		t.Errorf("FIFOPairs changed traffic: %d msgs/%d bytes != %d/%d", fmsgs, fbytes, msgs, bytes)
	}
}

// TestFIFOPairsIndependentPairs checks the guarantee is scoped to one
// (src, dst) pair: a message to a *different* destination is not
// delayed by another pair's large transfer.
func TestFIFOPairsIndependentPairs(t *testing.T) {
	cfg := testConfig(3)
	cfg.FIFOPairs = true
	const big, small = 8192, 0
	var smallDeliver Time
	c := New(cfg)
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, nil, big, stats.KindData)
			p.Send(2, 2, nil, small, stats.KindData)
		case 1:
			p.Recv(0, 1)
		case 2:
			smallDeliver = p.Recv(0, 2).Deliver
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The small message left at clock 2*SendOverhead and pays only its
	// own wire time.
	want := 2*cfg.SendOverhead + cfg.Latency + Time(float64(small+cfg.HeaderBytes)*cfg.NanosPerByte)
	if smallDeliver != want {
		t.Errorf("cross-pair message delivered at %v, want uncontended %v", smallDeliver, want)
	}
}

// TestQueueAttributionByResourceAndKind pins the contention model's
// split queueing accounting: an out-link storm binds on QueueOut, a
// gather binds the root's incoming link on QueueIn, a disjoint-pair
// transfer under a 1-way backplane binds on QueueBackplane — and every
// delay is simultaneously attributed to the message's traffic category.
func TestQueueAttributionByResourceAndKind(t *testing.T) {
	// Out-link: one sender, two back-to-back data messages to distinct
	// nodes queue on the sender's outgoing link.
	c := New(contendedConfig(3, 0))
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, nil, 968, stats.KindData)
			p.Send(2, 1, nil, 968, stats.KindBarrier)
		default:
			p.Recv(0, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	total := st.TotalQueueNanos()
	if total == 0 {
		t.Fatal("expected out-link queueing")
	}
	if got := st.QueueResNanosOf(stats.QueueOut); got != total {
		t.Errorf("out-link delay = %d, want all of %d", got, total)
	}
	if got := st.QueueKindNanosOf(stats.KindBarrier); got != total {
		t.Errorf("kind split: barrier delay = %d, want %d (the queued message was the barrier one)", got, total)
	}

	// In-link: two senders to one root at the same virtual time; the
	// second binds on the root's incoming link.
	c = New(contendedConfig(3, 0))
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0, 1:
			p.Send(2, 1, nil, 968, stats.KindData)
		case 2:
			p.Recv(AnySrc, 1)
			p.Recv(AnySrc, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.TotalQueueNanos() == 0 || st.QueueResNanosOf(stats.QueueIn) != st.TotalQueueNanos() {
		t.Errorf("gather delay: in-link = %d, want all of %d", st.QueueResNanosOf(stats.QueueIn), st.TotalQueueNanos())
	}

	// Backplane: disjoint pairs under a 1-way backplane; the second
	// transfer binds on the backplane (its own NICs are idle).
	c = New(contendedConfig(4, 1))
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, nil, 968, stats.KindData)
		case 2:
			p.Send(3, 1, nil, 968, stats.KindData)
		case 1:
			p.Recv(0, 1)
		case 3:
			p.Recv(2, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.TotalQueueNanos() == 0 || st.QueueResNanosOf(stats.QueueBackplane) != st.TotalQueueNanos() {
		t.Errorf("backplane delay = %d, want all of %d", st.QueueResNanosOf(stats.QueueBackplane), st.TotalQueueNanos())
	}

	// The per-resource split always sums to the per-node totals.
	var resSum int64
	for _, r := range stats.AllQueueResources() {
		resSum += st.QueueResNanosOf(r)
	}
	if resSum != st.TotalQueueNanos() {
		t.Errorf("resource split sums to %d, want %d", resSum, st.TotalQueueNanos())
	}
}
