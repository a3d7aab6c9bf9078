package sim

import (
	"testing"

	"repro/internal/stats"
)

// checkedCluster is New with the effective-time cache cross-checked at
// every pick: the cached time of every process must equal effective(p)
// recomputed from its state and inbox.
func checkedCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c := New(cfg)
	c.onPick = func() {
		for _, p := range c.procs {
			if want := c.effective(p); p.eff != want {
				t.Fatalf("dispatch %d: proc %d (%s, wait src=%d tag=%d, inbox %d) caches effective time %v, recomputed %v",
					c.host.Dispatches, p.id, p.state, p.waitSrc, p.waitTag, len(p.inbox), p.eff, want)
			}
		}
	}
	return c
}

// pingPong is a two-process program exchanging 2*rounds messages.
func pingPong(rounds int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if p.ID() == 0 {
				p.Send(1, 1, nil, 8, stats.KindData)
				p.Recv(1, 2)
			} else {
				p.Recv(0, 1)
				p.Send(0, 2, nil, 8, stats.KindData)
			}
		}
	}
}

// ringProgram is the 8-process ring of BenchmarkSimulatorEventRate:
// 8*rounds messages.
func ringProgram(rounds int) func(p *Proc) {
	return func(p *Proc) {
		for k := 0; k < rounds; k++ {
			p.Send((p.ID()+1)%8, 1, nil, 64, stats.KindData)
			p.Recv((p.ID()+7)%8, 1)
		}
	}
}

// TestSteadyStateMessagesDoNotAllocate: once a cluster is running, a
// message costs the host no heap object — it is stored by value in the
// destination's inbox and returned by value. The marginal allocations
// between a short and a long run of the same program are the steady
// state; the fixed cost of a run (processes, coroutines) cancels.
func TestSteadyStateMessagesDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		procs   int
		perRnd  int
		program func(rounds int) func(p *Proc)
	}{
		{"ping-pong", 2, 2, pingPong},
		{"ring8", 8, 8, ringProgram},
	} {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := New(testConfig(tc.procs)).Run(tc.program(rounds)); err != nil {
					t.Fatal(err)
				}
			})
		}
		const short, long = 100, 1100
		perMsg := (allocs(long) - allocs(short)) / float64((long-short)*tc.perRnd)
		if perMsg >= 0.05 {
			t.Errorf("%s: %.3f objects allocated per message, want < 0.05", tc.name, perMsg)
		}
	}
}

// TestEffectiveCacheMatchesRecompute cross-checks the cached effective
// times against a full recomputation at every dispatch of the ring, of
// a program whose blocked processes keep receiving messages that do not
// match what they wait for (wildcard and exact waits), and — through
// contentionStress, which always runs on a checkedCluster — of the
// contention stress programs.
func TestEffectiveCacheMatchesRecompute(t *testing.T) {
	if err := checkedCluster(t, testConfig(8)).Run(ringProgram(50)); err != nil {
		t.Fatal(err)
	}
	for _, ways := range []int{0, 1, 4} {
		contentionStress(t, 8, ways)
	}

	// Process 0 collects under wildcards; 1..3 feed it matching and
	// non-matching messages at skewed times and wait on exact pairs
	// while unrelated messages pile up in their inboxes.
	const n, rounds = 4, 20
	var got [3]int
	if err := checkedCluster(t, contendedConfig(n, 1)).Run(func(p *Proc) {
		if p.ID() == 0 {
			for r := 0; r < rounds; r++ {
				for i := 1; i < n; i++ {
					got[0] += p.Recv(AnySrc, 10+r).Src // tag fixed, any source
				}
				m := p.Recv(2, AnyTag) // source fixed, any tag: only the noise matches
				got[1] += m.Tag
				for i := 1; i < n; i++ {
					p.Send(i, 500+r, nil, 16, stats.KindControl)
				}
			}
			for i := 0; i < rounds*2; i++ {
				got[2] += p.Recv(AnySrc, AnyTag).Tag // the leftovers, in delivery order
			}
			return
		}
		for r := 0; r < rounds; r++ {
			p.Advance(Time(p.ID()*(r%5)) * 100 * Microsecond)
			if p.ID() != 2 {
				// Matches neither of process 0's first two waits.
				p.Send(0, 900, nil, 256*p.ID(), stats.KindData)
			} else {
				p.Send(0, 700+r, nil, 2048, stats.KindData)
			}
			p.Send(0, 10+r, nil, 64, stats.KindData)
			// Noise for a neighbour blocked on (0, 500+r).
			p.Send(1+p.ID()%(n-1), 800, nil, 32, stats.KindData)
			p.Recv(0, 500+r)
		}
		for r := 0; r < rounds; r++ {
			p.Recv(AnySrc, 800)
		}
	}); err != nil {
		t.Fatal(err)
	}
	wantTags := 0
	for r := 0; r < rounds; r++ {
		wantTags += 700 + r
	}
	if got[0] != rounds*(1+2+3) || got[1] != wantTags || got[2] != rounds*2*900 {
		t.Errorf("received sums %v, want [%d %d %d]", got, rounds*6, wantTags, rounds*2*900)
	}
}

// TestDeepInboxReceivesInDeliveryOrder: Recv fills a consumed slot with
// the inbox's last message, so positions are scrambled by the first
// receive from the middle. Order must not depend on them: successive
// receives under one filter come out in strictly increasing
// (Deliver, seq), whichever filter and however deep the inbox. With
// FIFOPairs the small messages behind a large one are clamped to its
// delivery time — ties that only seq can break; without, they overtake
// it and delivery order differs from send order.
func TestDeepInboxReceivesInDeliveryOrder(t *testing.T) {
	for _, fifo := range []bool{true, false} {
		deepInboxOrder(t, fifo)
	}
}

func deepInboxOrder(t *testing.T, fifo bool) {
	const depth, tags = 512, 4
	cfg := testConfig(2)
	cfg.FIFOPairs = fifo
	var counts [tags]int
	if err := checkedCluster(t, cfg).Run(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < depth; i++ {
				size := 16
				if i%37 == 0 {
					size = 64 << 10 // under FIFOPairs the next 36 tie with its delivery
				}
				p.Send(1, i%tags, nil, size, stats.KindData)
			}
			p.Send(1, tags, nil, 0, stats.KindControl)
			return
		}
		p.Recv(0, tags) // sent last: the other messages are all pending
		if len(p.inbox) != depth {
			t.Fatalf("inbox holds %d messages, want %d", len(p.inbox), depth)
		}
		ordered := func(src, tag, n int) {
			var prev Message
			for i := 0; i < n; i++ {
				m := p.Recv(src, tag)
				if i > 0 && (m.Deliver < prev.Deliver || (m.Deliver == prev.Deliver && m.seq <= prev.seq)) {
					t.Fatalf("recv(%d,%d) #%d: (deliver %v, seq %d) after (deliver %v, seq %d)",
						src, tag, i, m.Deliver, m.seq, prev.Deliver, prev.seq)
				}
				// Non-overtaking pairs deliver in send order, so every
				// filter sees each tag's messages first sent, first out.
				if fifo && m.seq != uint64(1+m.Tag+tags*counts[m.Tag]) {
					t.Fatalf("recv(%d,%d) #%d: tag %d seq %d, want that tag's message %d", src, tag, i, m.Tag, m.seq, counts[m.Tag])
				}
				counts[m.Tag]++
				prev = m
			}
		}
		ordered(0, 2, depth/tags/2)           // from the middle of the inbox
		ordered(AnySrc, 1, depth/tags)        // another tag, wildcard source
		ordered(0, AnyTag, depth/tags)        // across tags
		ordered(AnySrc, AnyTag, len(p.inbox)) // the rest
	}); err != nil {
		t.Fatal(err)
	}
	for tag, n := range counts {
		if n != depth/tags {
			t.Errorf("tag %d: received %d messages, want %d", tag, n, depth/tags)
		}
	}
}
