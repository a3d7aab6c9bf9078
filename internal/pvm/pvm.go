// Package pvm provides the hand-coded message-passing substrate of the
// paper: an interface in the style of PVMe, IBM's SP/2-optimized
// implementation of PVM, which the paper's hand-coded message-passing
// programs run on. It offers typed point-to-point sends, broadcast,
// reduction and exchange over the simulated switch, charging the pack/
// unpack CPU costs message-passing libraries of the era paid for staging
// data through transmit buffers.
package pvm

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scalar is the set of element types messages may carry.
type Scalar interface {
	~float32 | ~float64 | ~int32 | ~int64 | ~complex64 | ~complex128
}

// SizeOf returns the wire size in bytes of one element of type T — what
// Send charges and counts per element, so layers above that bill or
// chunk by bytes derive the size from the type instead of being told.
func SizeOf[T Scalar]() int {
	var z T
	switch any(z).(type) {
	case float32, int32:
		return 4
	case float64, int64, complex64:
		return 8
	case complex128:
		return 16
	}
	panic("pvm: unsupported element type")
}

const tagBase = 20 << 16

// System is a PVMe virtual machine: n tasks on the simulated switch.
type System struct {
	nprocs  int
	costs   model.Costs
	cluster *sim.Cluster
}

// NewSystem creates a message-passing machine with nprocs tasks.
func NewSystem(nprocs int, costs model.Costs) *System {
	if nprocs < 1 {
		panic("pvm: need at least one task")
	}
	return &System{
		nprocs:  nprocs,
		costs:   costs,
		cluster: sim.New(costs.SimConfig(nprocs)),
	}
}

// Stats returns the interconnect statistics.
func (s *System) Stats() *stats.Stats { return s.cluster.Stats() }

// Costs returns the machine cost model.
func (s *System) Costs() model.Costs { return s.costs }

// NProcs returns the task count.
func (s *System) NProcs() int { return s.nprocs }

// Run executes body on every task.
func (s *System) Run(body func(pv *PVM)) error {
	return s.cluster.Run(func(p *sim.Proc) {
		body(&PVM{p: p, sys: s})
	})
}

// PVM is the per-task handle.
type PVM struct {
	p   *sim.Proc
	sys *System
}

// Costs returns the machine cost model.
func (pv *PVM) Costs() model.Costs { return pv.sys.costs }

// ID returns the task id.
func (pv *PVM) ID() int { return pv.p.ID() }

// NProcs returns the task count.
func (pv *PVM) NProcs() int { return pv.sys.nprocs }

// Advance charges virtual compute time.
func (pv *PVM) Advance(d sim.Time) { pv.p.Advance(d) }

// Now returns the virtual clock.
func (pv *PVM) Now() sim.Time { return pv.p.Now() }

// Send packs and transmits vals to task dst under tag. The values are
// snapshotted (as pvm_pack does), so the caller may reuse the buffer.
func Send[T Scalar](pv *PVM, dst, tag int, vals []T) {
	Transmit(pv, dst, tag, Pack(vals))
}

// Pack is the snapshot half of Send: a fresh transmit buffer holding
// vals. A sender with several destinations for the same values packs
// once and Transmits sub-slices of the buffer.
func Pack[T Scalar](vals []T) []T {
	buf := make([]T, len(vals))
	copy(buf, vals)
	return buf
}

// Transmit is the charged half of Send: it bills the pack cost of buf
// and sends buf itself, which the receiver may read at any later time —
// the caller must not write to it again.
func Transmit[T Scalar](pv *PVM, dst, tag int, buf []T) {
	pv.p.Advance(pv.sys.costs.PackCost(len(buf) * SizeOf[T]()))
	transmit(pv, dst, tag, buf, stats.KindData)
}

// transmit puts buf on the wire as is, at no CPU cost beyond the send
// overhead.
func transmit[T Scalar](pv *PVM, dst, tag int, buf []T, kind stats.Kind) {
	pv.p.Send(dst, tagBase+tag, buf, len(buf)*SizeOf[T](), kind)
}

// Recv blocks for a message from src (AnySrc for a wildcard) under tag
// and unpacks it into dst, returning the element count.
func Recv[T Scalar](pv *PVM, src, tag int, dst []T) int {
	m := pv.p.Recv(src, tagBase+tag)
	vals := m.Payload.([]T)
	n := copy(dst, vals)
	pv.p.Advance(pv.sys.costs.UnpackCost(n * SizeOf[T]()))
	return n
}

// AnySrc is the wildcard source for Recv.
const AnySrc = sim.AnySrc

// Bcast sends vals from root to every other task (n-1 messages, as PVMe
// broadcast on the SP/2 switch). The transmit buffer is packed once and
// reused for every destination, as pvm_mcast does. Non-root tasks
// receive into vals.
func Bcast[T Scalar](pv *PVM, root, tag int, vals []T) {
	if pv.ID() == root {
		buf := Pack(vals)
		pv.p.Advance(pv.sys.costs.PackCost(len(buf) * SizeOf[T]()))
		for q := 0; q < pv.sys.nprocs; q++ {
			if q != root {
				transmit(pv, q, tag, buf, stats.KindData)
			}
		}
		return
	}
	Recv(pv, root, tag, vals)
}

// Exchange swaps equal-length slices with a partner task: both sides
// send, then receive. Used for nearest-neighbor boundary exchange.
func Exchange[T Scalar](pv *PVM, partner, tag int, send, recv []T) {
	Send(pv, partner, tag, send)
	Recv(pv, partner, tag, recv)
}

// gatherContribs receives one contribution from every other task,
// charging the same per-message unpack costs as Recv, and returns them
// indexed by sender. Reductions fold the gathered contributions in
// task order, never in arrival order — the repo-wide reduction rule
// (DESIGN.md): virtual-time perturbations such as network contention
// legitimately reorder arrivals, and a floating-point sum's association
// must not depend on them. Contributions are truncated to width.
func gatherContribs[T Scalar](pv *PVM, tag, width int) [][]T {
	out := make([][]T, pv.sys.nprocs)
	for i := 0; i < pv.sys.nprocs-1; i++ {
		m := pv.p.Recv(sim.AnySrc, tagBase+tag)
		vals := m.Payload.([]T)
		if len(vals) > width {
			vals = vals[:width]
		}
		pv.p.Advance(pv.sys.costs.UnpackCost(len(vals) * SizeOf[T]()))
		out[m.Src] = vals
	}
	return out
}

// ReduceSum performs a sum reduction of vals to root (every non-root
// task sends its contribution; root accumulates in task order), then
// returns the result on root. Non-root tasks return their own
// contribution.
func ReduceSum[T Scalar](pv *PVM, root, tag int, vals []T) []T {
	out := make([]T, len(vals))
	copy(out, vals)
	if pv.ID() == root {
		for _, c := range gatherContribs[T](pv, tag, len(out)) {
			for k := range c {
				out[k] += c[k]
			}
		}
		return out
	}
	Send(pv, root, tag, vals)
	return out
}

// AllReduceSum is ReduceSum followed by a broadcast of the result.
func AllReduceSum[T Scalar](pv *PVM, tag int, vals []T) []T {
	out := ReduceSum(pv, 0, tag, vals)
	Bcast(pv, 0, tag+1, out)
	return out
}

// Reduce folds every task's contribution into root element-wise with op
// (max, min, ...), in task order. Concurrent reductions must use
// distinct tags.
func Reduce[T Scalar](pv *PVM, root, tag int, vals []T, op func(a, b T) T) []T {
	out := make([]T, len(vals))
	copy(out, vals)
	if pv.ID() == root {
		for _, c := range gatherContribs[T](pv, tag, len(out)) {
			for k := range c {
				out[k] = op(out[k], c[k])
			}
		}
		return out
	}
	Send(pv, root, tag, vals)
	return out
}

// AllReduce is Reduce to task 0 followed by a broadcast of the result.
func AllReduce[T Scalar](pv *PVM, tag int, vals []T, op func(a, b T) T) []T {
	out := Reduce(pv, 0, tag, vals, op)
	Bcast(pv, 0, tag+1, out)
	return out
}

// BarrierSilent is Barrier with its messages recorded under the
// untracked category; the measurement harness uses it for timed-region
// boundaries.
func (pv *PVM) BarrierSilent(tag int) {
	if tr := pv.sys.costs.Trace; tr.Enabled() {
		tr.Instant(obs.EvBarrierArrive, pv.ID(), int64(pv.Now()), stats.KindShutdown, -1, int64(tag))
		defer func() {
			tr.Instant(obs.EvBarrierDepart, pv.ID(), int64(pv.Now()), stats.KindShutdown, -1, int64(tag))
		}()
	}
	if pv.ID() == 0 {
		for i := 0; i < pv.sys.nprocs-1; i++ {
			pv.p.Recv(AnySrc, tagBase+tag)
		}
		for q := 1; q < pv.sys.nprocs; q++ {
			pv.p.Send(q, tagBase+tag+1, nil, 4, stats.KindShutdown)
		}
		return
	}
	pv.p.Send(0, tagBase+tag, nil, 4, stats.KindShutdown)
	pv.p.Recv(0, tagBase+tag+1)
}

// SendUntracked transmits vals without traffic accounting or pack cost.
// The harness uses it to gather results (checksums) after measurement.
func SendUntracked[T Scalar](pv *PVM, dst, tag int, vals []T) {
	transmit(pv, dst, tag, Pack(vals), stats.KindShutdown)
}

// RecvUntracked receives a message sent with SendUntracked.
func RecvUntracked[T Scalar](pv *PVM, src, tag int, dst []T) int {
	m := pv.p.Recv(src, tagBase+tag)
	return copy(dst, m.Payload.([]T))
}

// GatherUntracked is the harness's result gather after measurement:
// every other task ships mine to task 0, untracked like SendUntracked,
// and task 0 returns the blocks indexed by task — its own, then one
// from each of tasks 1, 2, ... received in that order. A checksum that
// folds the blocks in task order never needs the assembled array. The
// blocks are the senders' own storage, not snapshots: the gather is the
// last thing a run does with it. Every other task returns nil.
func GatherUntracked[T Scalar](pv *PVM, tag int, mine []T) [][]T {
	if pv.ID() != 0 {
		transmit(pv, 0, tag, mine, stats.KindShutdown)
		return nil
	}
	blocks := make([][]T, pv.sys.nprocs)
	blocks[0] = mine
	for q := 1; q < pv.sys.nprocs; q++ {
		blocks[q] = pv.p.Recv(q, tagBase+tag).Payload.([]T)
	}
	return blocks
}

// Barrier synchronizes all tasks through task 0 (gather + release).
// Hand-coded message-passing programs rarely need it — data messages
// carry the synchronization — but the XHPF runtime uses it.
func (pv *PVM) Barrier(tag int) {
	if tr := pv.sys.costs.Trace; tr.Enabled() {
		tr.Instant(obs.EvBarrierArrive, pv.ID(), int64(pv.Now()), stats.KindData, -1, int64(tag))
		defer func() {
			tr.Instant(obs.EvBarrierDepart, pv.ID(), int64(pv.Now()), stats.KindData, -1, int64(tag))
		}()
	}
	one := []int32{0}
	if pv.ID() == 0 {
		buf := []int32{0}
		for i := 0; i < pv.sys.nprocs-1; i++ {
			Recv(pv, AnySrc, tag, buf)
		}
		for q := 1; q < pv.sys.nprocs; q++ {
			Send(pv, q, tag+1, one)
		}
		return
	}
	Send(pv, 0, tag, one)
	Recv(pv, 0, tag+1, one)
}
