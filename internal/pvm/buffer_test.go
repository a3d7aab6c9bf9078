package pvm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestRecvRejectsWrongLength: a message fills its receive buffer
// exactly. Copying a seeded short message would leave the tail of the
// buffer stale, and a long one would be cut silently; both panic
// instead, naming the sender, the tag and both lengths.
func TestRecvRejectsWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recvs := map[string]func(pv *PVM, tag int, dst []float64){
		"Recv":          func(pv *PVM, tag int, dst []float64) { Recv(pv, 0, tag, dst) },
		"RecvUntracked": func(pv *PVM, tag int, dst []float64) { RecvUntracked(pv, 0, tag, dst) },
	}
	for name, recv := range recvs {
		for _, shape := range []string{"short", "long"} {
			want := 2 + rng.Intn(100)
			sent := want - 1 - rng.Intn(want-1)
			if shape == "long" {
				sent = want + 1 + rng.Intn(want)
			}
			tag := 1 + rng.Intn(100)
			msg := fmt.Sprint(func() (r any) {
				defer func() { r = recover() }()
				_ = newSys(2).Run(func(pv *PVM) {
					if pv.ID() == 0 {
						Send(pv, 1, tag, make([]float64, sent))
						return
					}
					recv(pv, tag, make([]float64, want))
				})
				return nil
			}())
			for _, part := range []string{"task 0", fmt.Sprintf("tag %d", tag), fmt.Sprintf("carries %d elements", sent), fmt.Sprintf("holds %d", want)} {
				if !strings.Contains(msg, part) {
					t.Errorf("%s of a %s message (%d sent, %d expected): panic %q does not name %q", name, shape, sent, want, msg, part)
				}
			}
		}
	}
}

// exchangeRounds runs rounds of traffic on a 4-task system: every task
// sends a vector of words to every other and receives theirs, then
// task k%4 broadcasts one, then the tasks sum one to task 0.
func exchangeRounds(rounds, words int) func(pv *PVM) {
	return func(pv *PVM) {
		me, n := pv.ID(), pv.NProcs()
		send, recv := make([]float64, words), make([]float64, words)
		for k := 0; k < rounds; k++ {
			for i := range send {
				send[i] = float64(k*n + me)
			}
			for q := 0; q < n; q++ {
				if q != me {
					Send(pv, q, 1, send)
				}
			}
			for q := 0; q < n; q++ {
				if q == me {
					continue
				}
				Recv(pv, q, 1, recv)
				if recv[words-1] != float64(k*n+q) {
					panic(fmt.Sprintf("round %d: task %d got %v from task %d", k, me, recv[words-1], q))
				}
			}
			Bcast(pv, k%n, 2, send)
			ReduceSum(pv, 0, 3, send[:1])
		}
	}
}

// TestTransmitBuffersAreRecycled: every pack draws from the System's
// free list and every receiver gives the buffer back, so a run makes
// as many buffers as were ever in flight at once, not one per message,
// and all of them are back on the list when it ends.
func TestTransmitBuffersAreRecycled(t *testing.T) {
	const nprocs, rounds, words = 4, 50, 512
	sys := newSys(nprocs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sys.Run(exchangeRounds(rounds, words)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	l := listOf[float64](sys)
	msgs := sys.Stats().TotalMsgs()
	if want := int64(rounds * (nprocs*(nprocs-1) + 2*(nprocs-1))); msgs != want {
		t.Fatalf("%d messages, want %d", msgs, want)
	}
	if len(l.bufs) != l.made {
		t.Errorf("%d buffers made, %d back on the list: some were never given back", l.made, len(l.bufs))
	}
	// A task is at most one round ahead of the slowest: it holds the
	// buffers of two rounds' sends to each peer at most.
	if inFlight := 2 * nprocs * (nprocs - 1); l.made > inFlight {
		t.Errorf("%d buffers made for %d messages, more than the %d that can be in flight at once", l.made, msgs, inFlight)
	}
	// The host bytes say the same: a buffer per message alone would be
	// msgs × words × 8 bytes.
	if got, perMsg := after.TotalAlloc-before.TotalAlloc, uint64(msgs)*words*8; got > perMsg/4 {
		t.Errorf("run allocated %d bytes; a buffer per message alone is %d", got, perMsg)
	}
}

// objectsPerMessage is the heap objects a 4-task run of exchangeRounds
// allocates per message: a long run's count minus a short one's, so the
// set-up (system, processes, first buffers) cancels out.
func objectsPerMessage(t testing.TB) float64 {
	const nprocs, words = 4, 64
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := NewSystem(nprocs, model.SP2()).Run(exchangeRounds(rounds, words)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 40, 200
	perRound := nprocs*(nprocs-1) + 2*(nprocs-1)
	return (allocs(long) - allocs(short)) / float64((long-short)*perRound)
}

// TestSteadyStateMessageAllocations holds what a message allocates to
// what outlives it (DESIGN.md, internal/pvm, "Transmit buffers go
// round"): per round of 18 messages, the four results ReduceSum returns and
// the root's table of contributions. A buffer or a payload box per
// message would add one object or two.
func TestSteadyStateMessageAllocations(t *testing.T) {
	got := objectsPerMessage(t)
	t.Logf("%.3f objects per message", got)
	const max = 0.3
	if got > max {
		t.Errorf("%.3f objects per message, want <= %.2f", got, max)
	}
}

// scribbleFree overwrites every buffer on sys's free lists of the types
// the ownership test sends: a buffer on a list has no reader, so
// nothing may change when it is overwritten.
func scribbleFree(sys *System) {
	for _, b := range listOf[float64](sys).bufs {
		for i := range b.vals {
			b.vals[i] = -7777
		}
	}
	for _, b := range listOf[int32](sys).bufs {
		for i := range b.vals {
			b.vals[i] = -7777
		}
	}
}

// TestHeldPayloadsAreNeverHandedOut: a reduction's contributions are
// read at the fold, after the last of them arrives, and a result
// gather's blocks are the senders' own storage, read after the gather
// returns. Neither may be on the free list while it is read. Tasks
// arrive 1 ms apart and every task scribbles the free lists between
// operations, so a contribution given back before its fold, or a
// gathered block put on a list, is overwritten before it is read.
func TestHeldPayloadsAreNeverHandedOut(t *testing.T) {
	const nprocs, words, rounds = 4, 48, 5
	sys := newSys(nprocs)
	if err := sys.Run(func(pv *PVM) {
		me := pv.ID()
		vals := make([]float64, words)
		for k := 0; k < rounds; k++ {
			for i := range vals {
				vals[i] = float64(k*1000 + me*100 + i)
			}
			pv.Advance(sim.Time(me) * sim.Millisecond)
			scribbleFree(sys)
			out := ReduceSum(pv, 0, 10+2*k, vals)
			scribbleFree(sys)
			// Traffic between the other tasks while task 0 waits draws
			// buffers off the list and writes them.
			if me > 0 {
				Send(pv, 1+me%(nprocs-1), 50+k, vals)
				Recv(pv, 1+(me+nprocs-3)%(nprocs-1), 50+k, make([]float64, words))
				pv.Barrier(70 + 2*k)
			} else {
				for i, v := range out {
					if want := float64(4*(k*1000+i) + 600); v != want {
						t.Errorf("round %d: sum[%d] = %v, want %v", k, i, v, want)
						break
					}
				}
				pv.Barrier(70 + 2*k)
			}
			scribbleFree(sys)
		}
		mine := make([]int32, 1+me)
		for i := range mine {
			mine[i] = int32(10*me + i)
		}
		pv.Advance(sim.Time(me) * sim.Millisecond)
		blocks := GatherUntracked(pv, 90, mine)
		if me != 0 {
			return
		}
		scribbleFree(sys)
		for i := 0; i < 4; i++ {
			NewBuffer[int32](pv, 8).Release()
		}
		scribbleFree(sys)
		for q, b := range blocks {
			for i, v := range b {
				if want := int32(10*q + i); v != want {
					t.Errorf("gathered block %d has %d at %d, want %d", q, v, i, want)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkExchange is one Exchange of 1 024 float64 between two tasks
// a round: B/op and allocs/op are what a round of two messages
// allocates once the buffers go round.
func BenchmarkExchange(b *testing.B) {
	const words = 1024
	b.ReportAllocs()
	if err := newSys(2).Run(func(pv *PVM) {
		send, recv := make([]float64, words), make([]float64, words)
		for i := 0; i < b.N; i++ {
			Exchange(pv, 1-pv.ID(), 1, send, recv)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBcast8 is one Bcast of 1 024 float64 to seven others a
// round, the root rotating as XHPF's owner-computes broadcasts do: each
// root has received the previous round's values before it sends, so
// one buffer serves every round. (From a fixed root, repeated
// broadcasts outrun the root's link, and the buffers in flight grow
// with the run.)
func BenchmarkBcast8(b *testing.B) {
	const words = 1024
	b.ReportAllocs()
	if err := newSys(8).Run(func(pv *PVM) {
		vals := make([]float64, words)
		for i := 0; i < b.N; i++ {
			Bcast(pv, i%8, 1, vals)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
