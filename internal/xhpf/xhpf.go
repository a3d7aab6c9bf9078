// Package xhpf implements the runtime targeted by the APR Forge XHPF
// High Performance Fortran compiler (paper §2.4) on the simulated
// message-passing machine. XHPF transforms an annotated sequential
// program into an SPMD program: every processor executes the sequential
// code (replicated, partially guarded), DO loops are distributed by the
// owner-computes rule over user-specified data decompositions, and a
// small runtime performs the communication the compiler generated.
//
// Two communication regimes mirror the compiler's abilities:
//
//   - Known access patterns (the regular applications): exact section
//     sends — halo exchanges and transposes — although in the
//     unaggregated, section-at-a-time form compiler-generated code
//     produces.
//   - Unknown access patterns (the irregular applications, where an
//     indirection array defeats analysis): each processor broadcasts its
//     whole partition to all other processors at the end of the parallel
//     loop, "regardless of whether the data will actually be used".
//
// The generated code also synchronizes at parallel-loop boundaries
// (LoopSync) and implements recognized reductions as all-reduces so the
// replicated sequential code has the result everywhere.
package xhpf

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/stats"
)

// System is an XHPF execution: an SPMD program on the message-passing
// machine (XHPF and TreadMarks both use the user-level MPL library, so
// the interconnect costs are shared).
type System struct {
	pv *pvm.System
}

// NewSystem creates an XHPF machine with nprocs processors.
func NewSystem(nprocs int, costs model.Costs) *System {
	return &System{pv: pvm.NewSystem(nprocs, costs)}
}

// Stats returns the interconnect statistics.
func (s *System) Stats() *stats.Stats { return s.pv.Stats() }

// NProcs returns the processor count.
func (s *System) NProcs() int { return s.pv.NProcs() }

// Run executes the SPMD body on every processor.
func (s *System) Run(body func(x *XHPF)) error {
	return s.pv.Run(func(pv *pvm.PVM) {
		body(&XHPF{pv: pv, n: s.pv.NProcs()})
	})
}

// XHPF is the per-processor runtime handle.
type XHPF struct {
	pv  *pvm.PVM
	n   int
	seq int // rolling tag sequence for runtime-generated communication
}

// ID returns the processor id.
func (x *XHPF) ID() int { return x.pv.ID() }

// NProcs returns the processor count.
func (x *XHPF) NProcs() int { return x.n }

// Advance charges compute time.
func (x *XHPF) Advance(d sim.Time) { x.pv.Advance(d) }

// Now returns the virtual clock.
func (x *XHPF) Now() sim.Time { return x.pv.Now() }

// PVM exposes the underlying message-passing handle for compiler-
// generated explicit sends.
func (x *XHPF) PVM() *pvm.PVM { return x.pv }

// chargeSection bills the runtime's descriptor-driven gather/scatter
// cost for moving n bytes through array sections.
func (x *XHPF) chargeSection(bytes int) {
	x.pv.Advance(x.pv.Costs().SectionCost(bytes))
}

// collective opens an EvCollective trace span covering one runtime
// collective and returns its closer: `defer x.collective(obs.CollBcast,
// stats.KindData)()`. Disabled tracing returns a shared no-op closer
// without reading the clock.
func (x *XHPF) collective(op int64, kind stats.Kind) func() {
	tr := x.pv.Costs().Trace
	if !tr.Enabled() {
		return nopClose
	}
	start := int64(x.Now())
	return func() {
		tr.Span(obs.EvCollective, x.ID(), start, int64(x.Now())-start, kind, -1, op)
	}
}

func nopClose() {}

// Block returns this processor's owned block [lo,hi) of a dimension of
// extent n under BLOCK distribution.
func (x *XHPF) Block(n int) (lo, hi int) {
	return BlockOf(x.ID(), x.n, n)
}

// BlockOf returns processor p's block of extent-n under BLOCK
// distribution.
func BlockOf(p, nprocs, n int) (lo, hi int) {
	chunk := (n + nprocs - 1) / nprocs
	lo = p * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}

// LoopSync is the synchronization the generated code performs at a
// parallel-loop boundary: a runtime barrier, 2(n-1) messages.
func (x *XHPF) LoopSync() {
	defer x.collective(obs.CollLoopSync, stats.KindData)()
	x.seq += 2
	x.pv.Barrier(1<<12 + x.seq)
}

// XHPF stages transfers through fixed-size runtime buffers; large
// sections go out in chunks of this many bytes.
const chunkBytes = 4096

// chunkTagStride separates the per-chunk tags of one multi-message
// transfer. The simulated network does not guarantee non-overtaking
// delivery within a (src, dst) pair the way PVMe/MPL did: a small
// ragged tail chunk's wire time can undercut a full chunk's, so with a
// shared tag the receiver — which consumes matching messages in
// delivery order — would place chunk payloads at the wrong offsets
// (observed on IGrid/xhpf at 4 nodes, where a 36-element tail overtook
// its 1024-element predecessor and silently corrupted every broadcast
// block). Each in-flight message of a pair therefore carries a distinct
// tag, derived identically on both sides from the chunk index. The
// stride keeps these tags disjoint from every rolling x.seq tag.
const chunkTagStride = 1 << 20

// chunkTag derives the wire tag of the idx-th in-flight message of one
// (src, dst) stream within a collective. Send and receive sides must
// derive idx identically — both count chunks (or sections × chunks) in
// the same deterministic loop order — or the transfer deadlocks.
func chunkTag(base, idx int) int { return base + idx*chunkTagStride }

// sendChunks ships block to every other processor in messages of chunk
// elements, destination-major. The block is packed once and every
// message is a part of that one buffer: a snapshot is still needed,
// because a slower processor may unpack after this one has gone on to
// overwrite the block, but not one per destination. The buffer goes
// back on the free list when the last part has been received. Each
// message is billed its own pack cost, as the runtime's staging
// buffers charge it.
func sendChunks[T pvm.Scalar](x *XHPF, tag, chunk int, block []T) {
	if x.n == 1 {
		return
	}
	buf := pvm.Pack(x.pv, block)
	for q := 0; q < x.n; q++ {
		if q == x.ID() {
			continue
		}
		for off := 0; off < len(block); off += chunk {
			pvm.Transmit(x.pv, q, chunkTag(tag, off/chunk), buf, off, min(off+chunk, len(block)))
		}
	}
	buf.Release()
}

// BroadcastBlocks is the unknown-pattern fallback: every processor
// broadcasts the block [lo,hi) of arr it owns under blockOf to every
// other processor, and installs the blocks it receives. n*(n-1)
// messages carrying the entire array (n-1) times — the communication
// blow-up Table 3 shows for the irregular applications under XHPF.
func BroadcastBlocks[T pvm.Scalar](x *XHPF, arr []T, blockOf func(q int) (lo, hi int)) {
	defer x.collective(obs.CollPartition, stats.KindData)()
	x.seq += 2
	tag := 1<<13 + x.seq
	elemSize := pvm.SizeOf[T]()
	chunk := chunkBytes / elemSize
	mylo, myhi := blockOf(x.ID())
	if myhi > mylo {
		x.chargeSection((myhi - mylo) * elemSize * (x.n - 1))
		sendChunks(x, tag, chunk, arr[mylo:myhi])
	}
	for q := 0; q < x.n; q++ {
		if q == x.ID() {
			continue
		}
		qlo, qhi := blockOf(q)
		x.chargeSection((qhi - qlo) * elemSize)
		for off := qlo; off < qhi; off += chunk {
			pvm.Recv(x.pv, q, chunkTag(tag, (off-qlo)/chunk), arr[off:min(off+chunk, qhi)])
		}
	}
}

// BroadcastPartition is BroadcastBlocks over the flat BLOCK
// distribution of arr's extent elements.
func BroadcastPartition[T pvm.Scalar](x *XHPF, arr []T, extent int) {
	BroadcastBlocks(x, arr, func(q int) (int, int) { return BlockOf(q, x.n, extent) })
}

// BroadcastGather is the unknown-pattern fallback for reduction
// buffers: every processor broadcasts its *entire* contribution buffer
// mine (the compiler cannot tell which entries were touched through the
// indirection array). It then hands fold every processor's buffer in
// processor order — its own mine, each other one as it is received into
// recv, which is len(mine) long and reused — so callers combine in a
// deterministic order without holding every processor's copy.
func BroadcastGather[T pvm.Scalar](x *XHPF, mine, recv []T, fold func(part []T)) {
	defer x.collective(obs.CollGather, stats.KindData)()
	x.seq += 2
	tag := 1<<13 + x.seq
	size := pvm.SizeOf[T]()
	chunk := chunkBytes / size
	x.chargeSection(len(mine) * size * (x.n - 1))
	sendChunks(x, tag, chunk, mine)
	for q := 0; q < x.n; q++ {
		if q == x.ID() {
			fold(mine)
			continue
		}
		x.chargeSection(len(recv) * size)
		for off := 0; off < len(recv); off += chunk {
			pvm.Recv(x.pv, q, chunkTag(tag, off/chunk), recv[off:min(off+chunk, len(recv))])
		}
		fold(recv)
	}
}

// SectionAllToAll redistributes arr (length n*n conceptual matrix of
// rows×cols elements handled by the caller through the section callback)
// in the unaggregated per-section form XHPF generates for transposes:
// each (source, destination) pair exchanges its intersection in chunks
// of sectionLen elements, one message per chunk.
func SectionAllToAll[T pvm.Scalar](x *XHPF, sectionLen int,
	sectionsFor func(dst int) [][]T, placeFor func(src int) [][]T) {
	defer x.collective(obs.CollAllToAll, stats.KindData)()
	x.seq += 2
	tag := 1<<13 + x.seq
	me := x.ID()
	elemSize := pvm.SizeOf[T]()
	for q := 0; q < x.n; q++ {
		if q == me {
			continue
		}
		// Per-pair message index: placeFor on the receiver mirrors
		// sectionsFor on the sender, so both sides count identically.
		msg := 0
		for _, sec := range sectionsFor(q) {
			x.chargeSection(len(sec) * elemSize)
			for off := 0; off < len(sec); off += sectionLen {
				end := min(off+sectionLen, len(sec))
				pvm.Send(x.pv, q, chunkTag(tag, msg), sec[off:end])
				msg++
			}
		}
	}
	for q := 0; q < x.n; q++ {
		if q == me {
			continue
		}
		msg := 0
		for _, sec := range placeFor(q) {
			x.chargeSection(len(sec) * elemSize)
			for off := 0; off < len(sec); off += sectionLen {
				end := min(off+sectionLen, len(sec))
				pvm.Recv(x.pv, q, chunkTag(tag, msg), sec[off:end])
				msg++
			}
		}
	}
}

// Bcast is generated one-to-all communication: the owner of replicated
// data updated under owner-computes ships it to every processor before
// replicated sequential code uses it.
func Bcast[T pvm.Scalar](x *XHPF, root int, vals []T) {
	defer x.collective(obs.CollBcast, stats.KindData)()
	x.seq += 2
	x.chargeSection(len(vals) * pvm.SizeOf[T]())
	pvm.Bcast(x.pv, root, 1<<13+x.seq, vals)
}

// BoundarySync is an untracked barrier for measurement-region
// boundaries (harness infrastructure, not generated code).
func (x *XHPF) BoundarySync() {
	defer x.collective(obs.CollBarrier, stats.KindShutdown)()
	x.seq += 2
	x.pv.BarrierSilent(1<<12 + x.seq)
}

// AllReduceSum is a recognized reduction: summed to processor 0 and
// rebroadcast, so the replicated sequential code has the value
// everywhere.
func AllReduceSum[T pvm.Scalar](x *XHPF, vals []T) []T {
	defer x.collective(obs.CollReduce, stats.KindData)()
	x.seq += 4
	return pvm.AllReduceSum(x.pv, 1<<13+x.seq, vals)
}

// AllReduceWith is a recognized reduction with an arbitrary operator
// (MAX, MIN): folded to processor 0 and rebroadcast.
func AllReduceWith[T pvm.Scalar](x *XHPF, vals []T, op func(a, b T) T) []T {
	defer x.collective(obs.CollReduce, stats.KindData)()
	x.seq += 4
	return pvm.AllReduce(x.pv, 1<<13+x.seq, vals, op)
}
