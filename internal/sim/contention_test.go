package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// contendedConfig is testConfig with the serial-NIC model on: one proc
// per node, plus an optional backplane bound.
func contendedConfig(n, ways int) Config {
	cfg := testConfig(n)
	cfg.Nodes = n
	cfg.BackplaneWays = ways
	return cfg
}

// scriptedPattern runs a fixed mixed workload — skewed all-to-all
// exchanges with per-proc message sizes, interleaved with flat barriers
// — and returns the per-proc end clocks. It is the reference pattern for
// the zero-config bit-identity test.
func scriptedPattern(t *testing.T, cfg Config) ([4]Time, int64, int64) {
	t.Helper()
	c := New(cfg)
	var ends [4]Time
	if err := c.Run(func(p *Proc) {
		n := p.N()
		for r := 0; r < 3; r++ {
			p.Advance(Time(p.ID()*7+r) * Microsecond)
			for d := 0; d < n; d++ {
				if d != p.ID() {
					p.Send(d, 50+r, nil, 128*(p.ID()+1)+r, stats.KindData)
				}
			}
			for i := 0; i < n-1; i++ {
				p.Recv(AnySrc, 50+r)
			}
			barrierVia(p, 80+2*r)
		}
		ends[p.ID()] = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	return ends, c.Stats().TotalMsgs(), c.Stats().TotalBytes()
}

// TestZeroConfigBitIdentity pins the scripted pattern's virtual times
// against golden values captured before the contention model existed:
// a zero-value contention config must reproduce the infinite-capacity
// model bit for bit.
func TestZeroConfigBitIdentity(t *testing.T) {
	goldenEnds := [4]Time{900472, 926387, 941387, 956387}
	const goldenMsgs, goldenBytes = 54, 13284

	ends, msgs, bytes := scriptedPattern(t, testConfig(4))
	if ends != goldenEnds {
		t.Errorf("zero-config end clocks = %v, want golden %v", ends, goldenEnds)
	}
	if msgs != goldenMsgs || bytes != goldenBytes {
		t.Errorf("zero-config traffic = %d msgs/%d bytes, want %d/%d",
			msgs, bytes, goldenMsgs, goldenBytes)
	}

	// And the contended run of the same pattern must be strictly slower
	// on at least one proc and never faster on any.
	cends, cmsgs, cbytes := scriptedPattern(t, contendedConfig(4, 1))
	if cmsgs != goldenMsgs || cbytes != goldenBytes {
		t.Errorf("contention changed traffic: %d msgs/%d bytes, want %d/%d",
			cmsgs, cbytes, goldenMsgs, goldenBytes)
	}
	slower := false
	for i := range cends {
		if cends[i] < ends[i] {
			t.Errorf("proc %d finished earlier under contention: %v < %v", i, cends[i], ends[i])
		}
		if cends[i] > ends[i] {
			slower = true
		}
	}
	if !slower {
		t.Error("contention had no effect on the scripted pattern")
	}
}

// TestContentionFIFOPerLink checks back-to-back serialization on a
// single outgoing link: three equal-size messages from one sender reach
// the receiver exactly one serialization time apart, in send order, and
// the queueing delays grow by a full wire time per message.
func TestContentionFIFOPerLink(t *testing.T) {
	cfg := contendedConfig(2, 0)
	const payload = 968 // wire = 1000 bytes -> wireT = 28600ns
	wireT := Time(float64(payload+cfg.HeaderBytes) * cfg.NanosPerByte)
	c := New(cfg)
	var deliver [3]Time
	var queued [3]Time
	if err := c.Run(func(p *Proc) {
		if p.ID() == 0 {
			for k := 0; k < 3; k++ {
				p.Send(1, k, nil, payload, stats.KindData)
			}
			return
		}
		for k := 0; k < 3; k++ {
			m := p.Recv(0, k)
			deliver[k], queued[k] = m.deliver, m.queued
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Send k leaves the sender at (k+1)*SendOverhead; the link finishes
	// message k-1 only wireT after it started, so from message 1 on the
	// spacing is exactly wireT (back-to-back) and the queueing delay
	// grows by wireT - SendOverhead per message.
	for k := 1; k < 3; k++ {
		if got := deliver[k] - deliver[k-1]; got != wireT {
			t.Errorf("delivery spacing %d = %v, want wireT %v", k, got, wireT)
		}
	}
	wantQ := [3]Time{0,
		wireT - cfg.SendOverhead,
		2*wireT - 2*cfg.SendOverhead}
	if queued != wantQ {
		t.Errorf("queueing delays = %v, want %v", queued, wantQ)
	}
	if got := c.Stats().TotalQueueNanos(); got != int64(wantQ[1]+wantQ[2]) {
		t.Errorf("TotalQueueNanos = %d, want %d", got, int64(wantQ[1]+wantQ[2]))
	}
	if got := c.Stats().TotalQueuedMsgs(); got != 2 {
		t.Errorf("TotalQueuedMsgs = %d, want 2 (messages 1 and 2 waited)", got)
	}
}

// TestContentionIncomingLinkSerializes checks the gather side: two
// senders transmitting to one receiver at the same virtual time queue on
// the receiver's incoming link rather than overlapping.
func TestContentionIncomingLinkSerializes(t *testing.T) {
	cfg := contendedConfig(3, 0)
	const payload = 968
	wireT := Time(float64(payload+cfg.HeaderBytes) * cfg.NanosPerByte)
	c := New(cfg)
	var deliver [2]Time
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0, 1:
			p.Send(2, 1, nil, payload, stats.KindData)
		case 2:
			for k := 0; k < 2; k++ {
				m := p.Recv(AnySrc, 1)
				if m.Src != k {
					t.Errorf("arrival %d came from %d, want FIFO by send order", k, m.Src)
				}
				deliver[k] = m.deliver
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := deliver[1] - deliver[0]; got != wireT {
		t.Errorf("incoming-link spacing = %v, want %v", got, wireT)
	}
}

// TestBackplaneCapacity checks the shared-switch bound: transfers
// between disjoint node pairs don't touch each other's NICs, but with
// BackplaneWays=1 the second pays the first's full serialization time.
func TestBackplaneCapacity(t *testing.T) {
	const payload = 968
	for _, ways := range []int{0, 1, 2} {
		cfg := contendedConfig(4, ways)
		wireT := Time(float64(payload+cfg.HeaderBytes) * cfg.NanosPerByte)
		c := New(cfg)
		var deliver [2]Time
		if err := c.Run(func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Send(1, 1, nil, payload, stats.KindData)
			case 2:
				p.Send(3, 1, nil, payload, stats.KindData)
			case 1:
				deliver[0] = p.Recv(0, 1).deliver
			case 3:
				deliver[1] = p.Recv(2, 1).deliver
			}
		}); err != nil {
			t.Fatal(err)
		}
		var want Time
		if ways > 0 {
			want = wireT / Time(ways) // backplane occupancy of msg 1
		}
		if got := deliver[1] - deliver[0]; got != want {
			t.Errorf("ways=%d: disjoint-pair spacing = %v, want %v", ways, got, want)
		}
	}
}

// TestLoopbackBypassesNIC checks that messages between two processes of
// the same physical node (an application process and its request
// server) never queue, even while the node's NIC is saturated.
func TestLoopbackBypassesNIC(t *testing.T) {
	// 4 procs on 2 nodes: procs 0,2 are node 0; procs 1,3 are node 1.
	cfg := contendedConfig(4, 0)
	cfg.Nodes = 2
	c := New(cfg)
	if err := c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			// Saturate node 0's outgoing link toward node 1...
			for k := 0; k < 4; k++ {
				p.Send(1, 1, nil, 4096, stats.KindData)
			}
			// ...then message the same-node proc 2: must not queue.
			p.Send(2, 2, nil, 4096, stats.KindData)
		case 1:
			for k := 0; k < 4; k++ {
				p.Recv(0, 1)
			}
		case 2:
			if m := p.Recv(0, 2); m.queued != 0 {
				t.Errorf("loopback message queued %v behind the NIC", m.queued)
			}
		case 3:
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestContentionMessageConservation floods a contended cluster with a
// seeded random all-to-all pattern and checks that every message sent is
// received exactly once, per (src, dst) pair.
func TestContentionMessageConservation(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		const rounds = 20
		c := New(contendedConfig(n, 2))
		rng := rand.New(rand.NewSource(int64(41 + n)))
		sizes := make([][]int, n) // per proc, per round
		for i := range sizes {
			sizes[i] = make([]int, rounds)
			for r := range sizes[i] {
				sizes[i][r] = rng.Intn(4096)
			}
		}
		recvCount := make([][]int, n) // [dst][src]
		for i := range recvCount {
			recvCount[i] = make([]int, n)
		}
		if err := c.Run(func(p *Proc) {
			for r := 0; r < rounds; r++ {
				for d := 0; d < n; d++ {
					if d != p.ID() {
						p.Send(d, 7, nil, sizes[p.ID()][r], stats.KindData)
					}
				}
				for i := 0; i < n-1; i++ {
					m := p.Recv(AnySrc, 7)
					recvCount[p.ID()][m.Src]++
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		for dst := range recvCount {
			for src, got := range recvCount[dst] {
				want := rounds
				if src == dst {
					want = 0
				}
				if got != want {
					t.Errorf("n=%d: %d->%d received %d, want %d", n, src, dst, got, want)
				}
			}
		}
		if got, want := c.Stats().TotalMsgs(), int64(rounds*n*(n-1)); got != want {
			t.Errorf("n=%d: total msgs = %d, want %d", n, got, want)
		}
	}
}

// contentionStress runs the seeded randomized send pattern of the stress
// tests at n procs and the given backplane width: skewed ring exchanges,
// an all-to-all burst every third round, a barrier per round.
func contentionStress(t *testing.T, n, ways int) (end Time, msgs int64, host HostStats) {
	t.Helper()
	c := checkedCluster(t, contendedConfig(n, ways))
	rng := rand.New(rand.NewSource(int64(1000*n + ways)))
	const rounds = 12
	// Pre-draw all random choices so every proc's behavior is a
	// pure function of (proc, round) and repeated runs match.
	skew := make([][]Time, n)
	size := make([][]int, n)
	for i := 0; i < n; i++ {
		skew[i] = make([]Time, rounds)
		size[i] = make([]int, rounds)
		for r := 0; r < rounds; r++ {
			skew[i][r] = Time(rng.Intn(2000)) * Microsecond
			size[i][r] = rng.Intn(8192)
		}
	}
	if err := c.Run(func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Advance(skew[p.ID()][r])
			// Ring exchange: send to the next proc, receive
			// from the previous; deadlock-free by construction.
			next := (p.ID() + 1) % n
			prev := (p.ID() + n - 1) % n
			p.Send(next, 30+r, nil, size[p.ID()][r], stats.KindData)
			p.Recv(prev, 30+r)
			// All-to-all burst every third round: the storm
			// pattern that exercises deep link queues.
			if r%3 == 0 {
				for d := 0; d < n; d++ {
					if d != p.ID() {
						p.Send(d, 60+r, nil, size[d][r], stats.KindData)
					}
				}
				for i := 0; i < n-1; i++ {
					p.Recv(AnySrc, 60+r)
				}
			}
			barrierVia(p, 100+2*r)
		}
		if p.ID() == 0 {
			end = p.Now()
		}
	}); err != nil {
		t.Fatalf("n=%d ways=%d: %v", n, ways, err)
	}
	return end, c.Stats().TotalMsgs(), c.HostStats()
}

// TestContentionDeadlockFreeStress drives randomized (seeded) send
// patterns at 2-8 procs under every contention configuration and
// demands that each run completes — delivery times that depend on queue
// state must never wedge the conservative scheduler — and that repeated
// runs are bit-identical.
func TestContentionDeadlockFreeStress(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for _, ways := range []int{0, 1, 4} {
			e1, m1, h1 := contentionStress(t, n, ways)
			e2, m2, h2 := contentionStress(t, n, ways)
			if e1 != e2 || m1 != m2 || h1 != h2 {
				t.Errorf("n=%d ways=%d nondeterministic: (%v,%d,%+v) vs (%v,%d,%+v)", n, ways, e1, m1, h1, e2, m2, h2)
			}
		}
	}
}

// TestContentionDelaysAreMonotone checks, on the stress pattern, two
// ordering properties the model guarantees: per-link busy times only
// move forward (no message is delivered while its link is still
// transmitting an earlier one), and contention never delivers earlier
// than the uncontended formula.
func TestContentionDelaysAreMonotone(t *testing.T) {
	cfg := contendedConfig(4, 1)
	c := New(cfg)
	type arrival struct{ deliver, sendTime Time }
	perLink := map[string][]arrival{} // "src->dst" node link
	if err := c.Run(func(p *Proc) {
		n := p.N()
		for r := 0; r < 5; r++ {
			for d := 0; d < n; d++ {
				if d != p.ID() {
					p.Send(d, 9, nil, 1024*(1+(p.ID()+r)%3), stats.KindData)
				}
			}
			for i := 0; i < n-1; i++ {
				m := p.Recv(AnySrc, 9)
				key := fmt.Sprintf("%d->%d", m.Src, p.ID())
				perLink[key] = append(perLink[key], arrival{m.deliver, m.sendTime})
				uncontended := m.sendTime + cfg.Latency + Time(float64(m.Bytes)*cfg.NanosPerByte)
				if m.deliver < uncontended {
					t.Fatalf("%s delivered at %v, before uncontended %v", key, m.deliver, uncontended)
				}
				if m.deliver-uncontended != m.queued {
					t.Fatalf("%s queued = %v, want deliver-uncontended = %v", key, m.queued, m.deliver-uncontended)
				}
			}
			barrierVia(p, 200+2*r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for key, as := range perLink {
		for i := 1; i < len(as); i++ {
			if as[i].deliver < as[i-1].deliver {
				t.Errorf("%s: deliveries out of order: %v then %v", key, as[i-1].deliver, as[i].deliver)
			}
		}
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
	for _, r := range []stats.QueueResource{stats.QueueOut, stats.QueueIn, stats.QueueBackplane} {
		resSum += st.QueueResNanosOf(r)
	}
	if resSum != st.TotalQueueNanos() {
		t.Errorf("resource split sums to %d, want %d", resSum, st.TotalQueueNanos())
	}
}
