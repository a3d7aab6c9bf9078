package xhpf

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// broadcasters are the two unknown-pattern collectives over per
// elements a processor, as functions of the processor's whole array
// (processor q's block is arr[q*per:(q+1)*per]).
var broadcasters = map[string]func(x *XHPF, arr []float32, per int){
	"BroadcastBlocks": func(x *XHPF, arr []float32, per int) {
		BroadcastBlocks(x, arr, func(q int) (int, int) { return q * per, (q + 1) * per })
	},
	"BroadcastGather": func(x *XHPF, arr []float32, per int) {
		n, me, q := x.NProcs(), x.ID(), 0
		BroadcastGather(x, arr[me*per:(me+1)*per], arr[n*per:(n+1)*per], func(part []float32) {
			copy(arr[q*per:(q+1)*per], part) // parts come in processor order
			q++
		})
	},
}

// blockArrays returns n whole arrays of n blocks of per elements, one a
// processor, made outside whatever the caller measures. Each has one
// more block past the array, the receive buffer BroadcastGather folds
// through.
func blockArrays(n, per int) [][]float32 {
	arrs := make([][]float32, n)
	for q := range arrs {
		arrs[q] = make([]float32, (n+1)*per)
	}
	return arrs
}

// TestBroadcastPacksOnce: a processor's block goes to seven others, but
// it is packed into one buffer all seven read, not copied once per
// destination. The arrays are made outside the measured run, so what
// the run allocates is the pack buffers and the simulator's own state:
// at most twice the blocks, not seven times.
func TestBroadcastPacksOnce(t *testing.T) {
	const n, per = 8, 16 << 10 // 64 KB blocks, 16 chunks each
	for name, bcast := range broadcasters {
		arrs := blockArrays(n, per)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := newSys(n).Run(func(x *XHPF) { bcast(x, arrs[x.ID()], per) }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		blocks := uint64(n * per * 4)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*blocks {
			t.Errorf("%s at %d processors allocated %d bytes for %d bytes of blocks: more than 2x", name, n, got, blocks)
		}
	}
}

// TestBroadcastLateReceiverSeesOldValues: the one snapshot that remains
// is needed. Processors enter the collective 10 ms apart, so processor 0
// has every block and returns while processor 7 is still sending and has
// unpacked nothing. Every processor overwrites its own block the moment
// the collective returns; all of them must still receive what the block
// held when it was sent.
func TestBroadcastLateReceiverSeesOldValues(t *testing.T) {
	const n, per = 8, 3*1024 + 100
	for name, bcast := range broadcasters {
		var returned [n]sim.Time
		if err := newSys(n).Run(func(x *XHPF) {
			me := x.ID()
			arr := make([]float32, (n+1)*per)
			for i := me * per; i < (me+1)*per; i++ {
				arr[i] = float32(1000*me + i%1000)
			}
			x.Advance(sim.Time(me) * 10 * sim.Millisecond)
			bcast(x, arr, per)
			returned[me] = x.Now()
			for i := me * per; i < (me+1)*per; i++ {
				arr[i] = -1 // the next phase reuses the block
			}
			for q := 0; q < n; q++ {
				if q == me {
					continue
				}
				for i := q * per; i < (q+1)*per; i++ {
					if want := float32(1000*q + i%1000); arr[i] != want {
						t.Errorf("%s: processor %d has %v at %d of processor %d's block, want %v", name, me, arr[i], i, q, want)
						return
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		// The scenario is the one described: processor 0 was back, and had
		// overwritten its block, before processor 7 was.
		if returned[0] >= returned[n-1] {
			t.Errorf("%s: processor 0 returned at %v, processor %d at %v: no late receiver", name, returned[0], n-1, returned[n-1])
		}
	}
}

// BenchmarkBroadcastBlocks8 is one BroadcastBlocks of 64 KB blocks on
// eight processors, arrays made outside the timer: B/op is what the
// collective itself allocates, 512 KB of blocks packed once.
func BenchmarkBroadcastBlocks8(b *testing.B) {
	const n, per = 8, 16 << 10
	arrs := blockArrays(n, per)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := newSys(n).Run(func(x *XHPF) { broadcasters["BroadcastBlocks"](x, arrs[x.ID()], per) }); err != nil {
			b.Fatal(err)
		}
	}
}
