package tmk

import (
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Barrier traffic, per the paper §2.2: barriers have a centralized
// manager (node 0's application process, which is itself waiting at the
// barrier, so no server process is involved). At arrival each process
// sends a release message carrying its newly released intervals' write
// notices; the manager merges them and broadcasts a departure carrying
// the notices each process lacks: 2(n-1) messages per barrier.
//
// Consistency invariant: a node's vector clock entry vc[q] advances only
// together with the interval records that justify it (ApplyBatches or the
// node's own release). Batches always cover the contiguous range
// (receiver.vc[q], sender.vc[q]], so logs never develop gaps and any node
// can serve consistency information for any older vector clock.

// arrivalMsg is a process's barrier-arrival payload, sent by pointer.
// Each worker node keeps one and refills it once the manager has
// marked it read (DESIGN.md, internal/tmk, "Barrier messages are reused
// once read").
type arrivalMsg struct {
	vc     []int32              // the arriver's vector clock (tells the manager what it lacks)
	own    [1]proto.NoticeBatch // the arriver's newly released intervals
	reduce []float64            // optional barrier-merged reduction contribution (§8)
	// dir carries the home policy's directory proposals of the closing
	// epoch (home migration / first-touch claims) for arbitration.
	dir  []proto.DirUpdate
	read bool // the manager has taken what it needs
}

// departMsg is the manager's barrier-departure payload, sent by pointer.
// The manager keeps one set of them, refilled once every worker has
// marked its own read.
type departMsg struct {
	batches []proto.NoticeBatch
	payload any // loop-control data under the improved interface (§2.3)
	reduce  []float64
	// dir is the arbitrated home-directory update list of this epoch,
	// identical in every departure: all nodes install the same homes
	// before any post-barrier release can flush.
	dir  []proto.DirUpdate
	read bool // the worker has taken what it needs
}

// Barrier performs a full TreadMarks barrier: an RC release followed by
// global synchronization and write-notice exchange.
func (tm *Tmk) Barrier() {
	tm.barrierReduce(nil, nil, stats.KindBarrier)
}

// BarrierReduceSum is the §8 "efficient support for reductions"
// extension: contributions are merged element-wise (sum) through the
// barrier messages themselves and the result is returned to every
// process, avoiding a lock-protected shared reduction variable. Every
// process must pass a slice of the same length.
func (tm *Tmk) BarrierReduceSum(vals []float64) []float64 {
	out := make([]float64, len(vals))
	tm.barrierReduce(vals, out, stats.KindBarrier)
	return out
}

func (tm *Tmk) barrierReduce(reduce, reduceOut []float64, kind stats.Kind) {
	nd := tm.nd
	p := tm.p
	n := nd.sys.nprocs
	c := nd.sys.costs

	reported := nd.lastReported
	nd.prot.Release(kind)
	nd.lastReported = nd.prot.VC()[nd.id]
	seq := nd.barrierSeq % barrierSeqSpace
	nd.barrierSeq++
	if tr := c.Trace; tr.Enabled() {
		tr.Instant(obs.EvBarrierArrive, p.ID(), int64(p.Now()), kind, -1, int64(seq))
		defer func() {
			tr.Instant(obs.EvBarrierDepart, p.ID(), int64(p.Now()), kind, -1, int64(seq))
		}()
	}
	if n == 1 {
		if reduceOut != nil {
			copy(reduceOut, reduce)
		}
		return
	}
	// Close the home policy's accounting epoch. Proposals ride the
	// arrival, the manager arbitrates, and the agreed updates ride the
	// departures. The hook is skipped at a single node (every page is
	// self-homed and homes never move) and on shutdown-kind barriers:
	// measurement boundaries just stretch the epoch, and the teardown
	// barrier must leave the system quiesced — a migration pull after
	// the final departure would race the request servers' exit.
	var props []proto.DirUpdate
	if kind != stats.KindShutdown {
		props = nd.prot.Rebalance()
	}

	if nd.id == 0 {
		// Contributions are folded in node order, not arrival order:
		// arrival order varies with protocol timing and floating-point
		// summation must not (cross-protocol equivalence).
		contribs := nd.contribs
		contribs[0] = reduce
		nd.dirPending[0] = props
		for i := 1; i < n; i++ {
			m := p.Recv(sim.AnySrc, tagBarrierArrive+seq)
			arr := m.Payload.(*arrivalMsg)
			nd.prot.ApplyBatches(arr.own[:])
			nd.setWorkerVC(m.Src, arr.vc)
			contribs[m.Src] = arr.reduce
			nd.dirPending[m.Src] = arr.dir
			arr.read = true
			p.Advance(c.BarrierWork)
		}
		var updates []proto.DirUpdate
		if kind != stats.KindShutdown {
			updates = nd.drainDirProposals()
		}
		var acc []float64
		for _, cv := range contribs {
			if len(cv) > len(acc) {
				grown := make([]float64, len(cv))
				copy(grown, acc)
				acc = grown
			}
			for k, v := range cv {
				acc[k] += v
			}
		}
		deps := nd.departures()
		for w := 1; w < n; w++ {
			dep := &deps[w-1]
			dep.reduce, dep.dir = acc, updates
			bytes := 16 + proto.BatchBytes(dep.batches) + len(acc)*8 + proto.DirUpdateBytes(updates)
			p.Send(w, tagBarrierDepart+seq, dep, bytes, kind)
		}
		nd.prot.ApplyDirectory(updates, kind)
		if reduceOut != nil {
			copy(reduceOut, acc)
		}
	} else {
		arr := nd.arrival(reported, reduce, props)
		bytes := n*vcBytes + proto.BatchBytes(arr.own[:]) + len(reduce)*8 + proto.DirUpdateBytes(props)
		p.Send(0, tagBarrierArrive+seq, arr, bytes, kind)
		m := p.Recv(0, tagBarrierDepart+seq)
		dep := m.Payload.(*departMsg)
		nd.prot.ApplyBatches(dep.batches)
		if reduceOut != nil {
			copy(reduceOut, dep.reduce)
		}
		dir := dep.dir
		dep.read = true
		p.Advance(c.BarrierWork)
		nd.prot.ApplyDirectory(dir, kind)
	}
	nd.firePushes(seq, kind)
}

// --- Improved compiler interface (§2.3): split arrival and departure ---
//
// The fork-join model needs only a one-to-all synchronization at the fork
// and an all-to-one at the join. The departure carries the loop-control
// variables (encapsulated-subroutine index and arguments), avoiding the
// two shared-memory control-page faults per worker of the original
// scheme. Per parallel loop: 2(n-1) messages instead of 8(n-1).

// Fork is the master-side barrier departure: it releases the master's
// interval and wakes the workers, piggybacking the loop-control payload
// ctrl (modeled size ctrlBytes) and the consistency information each
// worker lacks.
func (tm *Tmk) Fork(ctrl any, ctrlBytes int) {
	nd := tm.nd
	p := tm.p
	n := nd.sys.nprocs
	if nd.id != 0 {
		panic("tmk: Fork must be called on the master")
	}
	nd.prot.Release(stats.KindBarrier)
	nd.lastReported = nd.prot.VC()[nd.id]
	var updates []proto.DirUpdate
	if n > 1 {
		// The fork-join epoch hook: the workers' proposals arrived with
		// their Joins; arbitrate them with the master's own and ship
		// the agreed updates in the departures.
		nd.dirPending[0] = nd.prot.Rebalance()
		updates = nd.drainDirProposals()
	}
	seq := nd.barrierSeq % barrierSeqSpace
	nd.barrierSeq++
	deps := nd.departures()
	for w := 1; w < n; w++ {
		dep := &deps[w-1]
		dep.payload, dep.dir = ctrl, updates
		bytes := 16 + proto.BatchBytes(dep.batches) + ctrlBytes + proto.DirUpdateBytes(updates)
		p.Send(w, tagBarrierDepart+seq, dep, bytes, stats.KindBarrier)
	}
	nd.prot.ApplyDirectory(updates, stats.KindBarrier)
	nd.sys.costs.Trace.Instant(obs.EvBarrierDepart, p.ID(), int64(p.Now()), stats.KindBarrier, -1, int64(seq))
}

// WaitFork is the worker-side wait for the master's departure; it is an
// RC acquire (invalidations are applied) but not a release. It returns
// the piggybacked loop-control payload.
func (tm *Tmk) WaitFork() any {
	nd := tm.nd
	p := tm.p
	if nd.id == 0 {
		panic("tmk: WaitFork must be called on a worker")
	}
	seq := nd.barrierSeq % barrierSeqSpace
	nd.barrierSeq++
	m := p.Recv(0, tagBarrierDepart+seq)
	dep := m.Payload.(*departMsg)
	nd.prot.ApplyBatches(dep.batches)
	dir, ctrl := dep.dir, dep.payload
	dep.read = true
	p.Advance(nd.sys.costs.BarrierWork)
	nd.prot.ApplyDirectory(dir, stats.KindBarrier)
	nd.sys.costs.Trace.Instant(obs.EvBarrierDepart, p.ID(), int64(p.Now()), stats.KindBarrier, -1, int64(seq))
	return ctrl
}

// Join is the worker-side barrier arrival after a parallel loop: an RC
// release that reports the worker's write notices to the master.
func (tm *Tmk) Join() {
	nd := tm.nd
	p := tm.p
	if nd.id == 0 {
		panic("tmk: Join must be called on a worker")
	}
	reported := nd.lastReported
	nd.prot.Release(stats.KindBarrier)
	nd.lastReported = nd.prot.VC()[nd.id]
	props := nd.prot.Rebalance()
	seq := nd.barrierSeq % barrierSeqSpace
	nd.barrierSeq++
	arr := nd.arrival(reported, nil, props)
	bytes := nd.sys.nprocs*vcBytes + proto.BatchBytes(arr.own[:]) + proto.DirUpdateBytes(props)
	p.Send(0, tagBarrierArrive+seq, arr, bytes, stats.KindBarrier)
	nd.sys.costs.Trace.Instant(obs.EvBarrierArrive, p.ID(), int64(p.Now()), stats.KindBarrier, -1, int64(seq))
}

// Collect is the master-side join: it gathers the workers' arrivals,
// merging their write notices (an RC acquire for the master).
func (tm *Tmk) Collect() {
	nd := tm.nd
	p := tm.p
	n := nd.sys.nprocs
	if nd.id != 0 {
		panic("tmk: Collect must be called on the master")
	}
	seq := nd.barrierSeq % barrierSeqSpace
	nd.barrierSeq++
	nd.sys.costs.Trace.Instant(obs.EvBarrierArrive, p.ID(), int64(p.Now()), stats.KindBarrier, -1, int64(seq))
	for i := 1; i < n; i++ {
		m := p.Recv(sim.AnySrc, tagBarrierArrive+seq)
		arr := m.Payload.(*arrivalMsg)
		nd.prot.ApplyBatches(arr.own[:])
		nd.setWorkerVC(m.Src, arr.vc)
		nd.dirPending[m.Src] = arr.dir
		arr.read = true
		p.Advance(nd.sys.costs.BarrierWork)
	}
}

// departures fills the manager's departures, worker w's at w-1, each
// carrying the notices w lacks, in the departure set and the one batch
// array all their batches share (counted first), which each worker
// reads in place. The set is refilled only once every worker has
// marked its departure read; otherwise a fresh one is made and kept.
// Building them all before the first send gives what building each
// before its own send gave: only the manager's application process,
// which is sending, moves its vector clock, where every batch's window
// of the log ends.
func (nd *node) departures() []departMsg {
	n, vc := nd.sys.nprocs, nd.prot.VC()
	lack := 0
	for w := 1; w < n; w++ {
		for q, v := range vc {
			if v > nd.workerVCAt(w)[q] {
				lack++
			}
		}
	}
	deps, batches := nd.deps, nd.depBatches[:0]
	for i := range deps {
		if !deps[i].read {
			deps, batches = nil, nil
			break
		}
	}
	if deps == nil {
		deps = make([]departMsg, n-1)
	}
	if cap(batches) < lack {
		batches = make([]proto.NoticeBatch, 0, lack)
	}
	nd.deps, nd.depBatches = deps, batches
	for w := 1; w < n; w++ {
		o := len(batches)
		batches = nd.prot.BatchSince(batches, nd.workerVCAt(w))
		deps[w-1] = departMsg{batches: batches[o:len(batches):len(batches)]}
	}
	return deps
}

// arrival fills the worker's arrival with its vector clock and the
// notices of its intervals since reported. The manager marks an
// arrival read once it has taken them; until then (a Join, which
// waits for no departure, followed by another arrival) the worker
// makes a fresh one and keeps that.
func (nd *node) arrival(reported int32, reduce []float64, props []proto.DirUpdate) *arrivalMsg {
	arr := nd.arr
	if arr == nil || !arr.read {
		arr = new(arrivalMsg)
		nd.arr = arr
	}
	*arr = arrivalMsg{
		vc:     append(arr.vc[:0], nd.prot.VC()...),
		own:    [1]proto.NoticeBatch{nd.prot.OwnBatch(reported)},
		reduce: reduce,
		dir:    props,
	}
	return arr
}

// drainDirProposals arbitrates the gathered directory proposals of one
// epoch (manager only): first proposal per page in node-id order wins,
// the result is page-sorted and identical in every departure.
func (nd *node) drainDirProposals() []proto.DirUpdate {
	updates := proto.MergeDirProposals(nd.dirPending)
	for i := range nd.dirPending {
		nd.dirPending[i] = nil
	}
	return updates
}

// vcCopy snapshots a vector clock for a message payload.
func vcCopy(vc []int32) []int32 {
	out := make([]int32, len(vc))
	copy(out, vc)
	return out
}
