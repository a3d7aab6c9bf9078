// Package pvm provides the hand-coded message-passing substrate of the
// paper: an interface in the style of PVMe, IBM's SP/2-optimized
// implementation of PVM, which the paper's hand-coded message-passing
// programs run on. It offers typed point-to-point sends, broadcast,
// reduction and exchange over the simulated switch, charging the pack/
// unpack CPU costs message-passing libraries of the era paid for staging
// data through transmit buffers.
package pvm

import (
	"fmt"

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
	// lists holds one *freeList[T] per element type sent so far: the
	// transmit buffers every task packs into and every receiver gives
	// back. No lock: the tasks run on one host thread.
	lists []any
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

// A Buffer is a transmit buffer: what a pack copies into and what
// messages carry. It comes off its System's free list held by the
// sender (Pack, NewBuffer); every Transmit of a part of it adds a hold,
// which the receiver drops once it has unpacked that part, and the
// sender drops its own with Release. When the last hold goes, the
// buffer goes back on the list, to be handed out again whatever it
// holds.
type Buffer[T Scalar] struct {
	vals  []T
	holds int
	list  *freeList[T]
}

// Vals returns the buffer's elements, for the sender to fill.
func (b *Buffer[T]) Vals() []T { return b.vals }

// Release drops one hold on b: the sender's, once it transmits no more
// of b. (A receiver drops a message's hold when it unpacks the part.)
func (b *Buffer[T]) Release() {
	b.holds--
	switch {
	case b.holds == 0:
		b.list.bufs = append(b.list.bufs, b)
	case b.holds < 0:
		panic("pvm: transmit buffer released twice")
	}
}

// A part is the payload of one message: a window of a Buffer, or of
// the sender's own storage (GatherUntracked), in which case buf is
// nil. A part of a Buffer goes round too, so a message names its
// elements by pointer and boxing it in Message.Payload allocates
// nothing.
type part[T Scalar] struct {
	buf  *Buffer[T]
	vals []T
}

// done gives the part back once its receiver has read the elements,
// and drops its hold on the buffer.
func (p *part[T]) done() {
	if b := p.buf; b != nil {
		p.buf, p.vals = nil, nil
		b.list.parts = append(b.list.parts, p)
		b.Release()
	}
}

// freeList is a System's transmit buffers and message parts of element
// type T that nobody holds. Buffers are made only when the list is
// empty, so a run makes as many as were ever out at once.
type freeList[T Scalar] struct {
	bufs  []*Buffer[T]
	parts []*part[T]
	made  int // buffers ever made
}

func listOf[T Scalar](s *System) *freeList[T] {
	for _, l := range s.lists {
		if fl, ok := l.(*freeList[T]); ok {
			return fl
		}
	}
	fl := new(freeList[T])
	s.lists = append(s.lists, fl)
	return fl
}

// buffer takes an n-element buffer off the list, held once; a recycled
// one too small for n gets new storage.
func (l *freeList[T]) buffer(n int) *Buffer[T] {
	var b *Buffer[T]
	if k := len(l.bufs); k > 0 {
		b, l.bufs = l.bufs[k-1], l.bufs[:k-1]
	} else {
		b = &Buffer[T]{list: l}
		l.made++
	}
	if cap(b.vals) < n {
		b.vals = make([]T, n)
	}
	b.vals, b.holds = b.vals[:n], 1
	return b
}

func (l *freeList[T]) part(buf *Buffer[T], vals []T) *part[T] {
	var p *part[T]
	if k := len(l.parts); k > 0 {
		p, l.parts = l.parts[k-1], l.parts[:k-1]
	} else {
		p = new(part[T])
	}
	p.buf, p.vals = buf, vals
	return p
}

// NewBuffer takes an n-element transmit buffer off the System's free
// list, held by the caller, who fills Vals (its contents are whatever
// it last held), Transmits parts of it and Releases it. A receiver may
// also take one to unpack into, and Release it when it has read it.
func NewBuffer[T Scalar](pv *PVM, n int) *Buffer[T] {
	return listOf[T](pv.sys).buffer(n)
}

// Pack is the snapshot half of Send (pvm_pack's copy): a transmit
// buffer holding vals. A sender with several destinations for the same
// values packs once, Transmits parts of the buffer and Releases it.
func Pack[T Scalar](pv *PVM, vals []T) *Buffer[T] {
	b := NewBuffer[T](pv, len(vals))
	copy(b.vals, vals)
	return b
}

// Send packs and transmits vals to task dst under tag. The values are
// snapshotted (as pvm_pack does), so the caller may reuse the buffer.
func Send[T Scalar](pv *PVM, dst, tag int, vals []T) {
	b := Pack(pv, vals)
	Transmit(pv, dst, tag, b, 0, len(vals))
	b.Release()
}

// Transmit is the charged half of Send: it bills the pack cost of
// elements [lo,hi) of b and sends them to dst as one message, which the
// receiver may read at any later time — nobody may write to b again.
func Transmit[T Scalar](pv *PVM, dst, tag int, b *Buffer[T], lo, hi int) {
	pv.p.Advance(pv.sys.costs.PackCost((hi - lo) * SizeOf[T]()))
	transmit(pv, dst, tag, b, lo, hi, stats.KindData)
}

// transmit puts elements [lo,hi) of b on the wire as they are, adding
// the message's hold on b, at no CPU cost beyond the send overhead.
func transmit[T Scalar](pv *PVM, dst, tag int, b *Buffer[T], lo, hi int, kind stats.Kind) {
	b.holds++
	pv.p.Send(dst, tagBase+tag, b.list.part(b, b.vals[lo:hi]), (hi-lo)*SizeOf[T](), kind)
}

// unpack copies the message m, received under tag, into dst, which must
// be exactly its length, and gives its part back.
func unpack[T Scalar](m sim.Message, tag int, dst []T) int {
	p := m.Payload.(*part[T])
	if len(p.vals) != len(dst) {
		panic(fmt.Sprintf("pvm: message from task %d under tag %d carries %d elements, receive buffer holds %d",
			m.Src, tag, len(p.vals), len(dst)))
	}
	n := copy(dst, p.vals)
	p.done()
	return n
}

// Recv blocks for a message from src (anySrc for a wildcard) under tag
// and unpacks it into dst, returning the element count. The message
// must be exactly len(dst) elements.
func Recv[T Scalar](pv *PVM, src, tag int, dst []T) int {
	n := unpack(pv.p.Recv(src, tagBase+tag), tag, dst)
	pv.p.Advance(pv.sys.costs.UnpackCost(n * SizeOf[T]()))
	return n
}

// anySrc is the wildcard source for Recv.
const anySrc = sim.AnySrc

// Bcast sends vals from root to every other task (n-1 messages, as PVMe
// broadcast on the SP/2 switch). The transmit buffer is packed once and
// reused for every destination, as pvm_mcast does. Non-root tasks
// receive into vals.
func Bcast[T Scalar](pv *PVM, root, tag int, vals []T) {
	if pv.ID() == root {
		b := Pack(pv, vals)
		pv.p.Advance(pv.sys.costs.PackCost(len(vals) * SizeOf[T]()))
		for q := 0; q < pv.sys.nprocs; q++ {
			if q != root {
				transmit(pv, q, tag, b, 0, len(vals), stats.KindData)
			}
		}
		b.Release()
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

// ReduceSum performs a sum reduction of vals to root (every non-root
// task sends its contribution; root accumulates in task order), then
// returns the result on root. Non-root tasks return their own
// contribution.
func ReduceSum[T Scalar](pv *PVM, root, tag int, vals []T) []T {
	return Reduce(pv, root, tag, vals, add[T])
}

func add[T Scalar](a, b T) T { return a + b }

// AllReduceSum is ReduceSum followed by a broadcast of the result.
func AllReduceSum[T Scalar](pv *PVM, tag int, vals []T) []T {
	out := ReduceSum(pv, 0, tag, vals)
	Bcast(pv, 0, tag+1, out)
	return out
}

// Reduce folds every task's contribution into root element-wise with op
// (max, min, ...), in task order, then returns the result on root.
// Non-root tasks return their own contribution. Concurrent reductions
// must use distinct tags.
//
// Root receives one contribution from every other task, charging the
// same per-message unpack costs as Recv, and folds them in task order,
// never in arrival order — the repo-wide reduction rule (DESIGN.md):
// virtual-time perturbations such as network contention legitimately
// reorder arrivals, and a floating-point sum's association must not
// depend on them. So every contribution is held until the fold, and its
// part goes back only after it. Contributions are truncated to
// len(vals).
func Reduce[T Scalar](pv *PVM, root, tag int, vals []T, op func(a, b T) T) []T {
	out := make([]T, len(vals))
	copy(out, vals)
	if pv.ID() != root {
		Send(pv, root, tag, vals)
		return out
	}
	contribs := make([]*part[T], pv.sys.nprocs)
	for i := 0; i < pv.sys.nprocs-1; i++ {
		m := pv.p.Recv(sim.AnySrc, tagBase+tag)
		c := m.Payload.(*part[T])
		pv.p.Advance(pv.sys.costs.UnpackCost(min(len(c.vals), len(out)) * SizeOf[T]()))
		contribs[m.Src] = c
	}
	for _, c := range contribs {
		if c == nil {
			continue
		}
		for k, v := range c.vals[:min(len(c.vals), len(out))] {
			out[k] = op(out[k], v)
		}
		c.done()
	}
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
			pv.p.Recv(anySrc, tagBase+tag)
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
	b := Pack(pv, vals)
	transmit(pv, dst, tag, b, 0, len(vals), stats.KindShutdown)
	b.Release()
}

// RecvUntracked receives a message sent with SendUntracked. The message
// must be exactly len(dst) elements.
func RecvUntracked[T Scalar](pv *PVM, src, tag int, dst []T) int {
	return unpack(pv.p.Recv(src, tagBase+tag), tag, dst)
}

// GatherUntracked is the harness's result gather after measurement:
// every other task ships mine to task 0, untracked like SendUntracked,
// and task 0 returns the blocks indexed by task — its own, then one
// from each of tasks 1, 2, ... received in that order. A checksum that
// folds the blocks in task order never needs the assembled array. The
// blocks are the senders' own storage, not snapshots: the gather is the
// last thing a run does with it, and it never enters a free list. Every
// other task returns nil.
func GatherUntracked[T Scalar](pv *PVM, tag int, mine []T) [][]T {
	if pv.ID() != 0 {
		pv.p.Send(0, tagBase+tag, &part[T]{vals: mine}, len(mine)*SizeOf[T](), stats.KindShutdown)
		return nil
	}
	blocks := make([][]T, pv.sys.nprocs)
	blocks[0] = mine
	for q := 1; q < pv.sys.nprocs; q++ {
		p := pv.p.Recv(q, tagBase+tag).Payload.(*part[T])
		blocks[q] = p.vals
		p.done()
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
			Recv(pv, anySrc, tag, buf)
		}
		for q := 1; q < pv.sys.nprocs; q++ {
			Send(pv, q, tag+1, one)
		}
		return
	}
	Send(pv, 0, tag, one)
	Recv(pv, 0, tag+1, one)
}
