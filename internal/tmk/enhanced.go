package tmk

import (
	"repro/internal/proto"
	"repro/internal/stats"
)

// Enhanced compiler-runtime interface (paper §5 hand optimizations and
// §8, after Dwarkadas et al. [7]): data aggregation (ReadAggregated /
// WriteAggregated on regions), broadcast, and pushing data with barriers
// instead of the default request-response.

// bcastMsg carries a broadcast snapshot of a region range and, for each
// page the range covers whole, the applied vector of the root's copy.
type bcastMsg struct {
	payload any
	applied [][]int32
}

// PushOnBarrier registers a persistent push: at every subsequent barrier
// this node sends its new modifications for region pages covering
// elements [lo,hi) directly to dest. The consumer must register a
// matching ExpectPushOnBarrier. This is the "push instead of pull"
// optimization. Whether data actually travels is up to the coherence
// protocol: the homeless protocol ships diff records, while the
// home-based protocol already pushes diffs to the home at every release
// and ignores the pairing (consumers fetch from the home on demand).
func PushOnBarrier[T Elem](tm *Tmk, r *Region[T], lo, hi, dest int) {
	if dest == tm.nd.id {
		panic("tmk: push to self")
	}
	r.checkRange(lo, hi)
	first := int32(r.pageOf(lo))
	last := int32(r.pageOf(hi - 1))
	tm.nd.pushes = append(tm.nd.pushes, &proto.PushDirective{
		Dest:    dest,
		First:   first,
		Last:    last,
		SentSeq: make([]int32, last-first+1),
	})
}

// ExpectPushOnBarrier registers the consumer side of a push pairing: at
// every subsequent barrier this node receives and applies one push
// message from src (under protocols that implement pushing).
func (tm *Tmk) ExpectPushOnBarrier(src int) {
	if src == tm.nd.id {
		panic("tmk: expect push from self")
	}
	tm.nd.expects = append(tm.nd.expects, src)
}

// firePushes runs at the end of every barrier: the protocol services the
// registered pushes, then consumes the expected ones.
func (nd *node) firePushes(seq int, kind stats.Kind) {
	if len(nd.pushes) == 0 && len(nd.expects) == 0 {
		return
	}
	nd.prot.FirePushes(nd.tm.p, seq, kind, nd.pushes, nd.expects)
}

// BroadcastRegion implements the merged synchronization-and-data
// broadcast used by the optimized MGS (§5.3: "we hand-modified the
// program to merge the data and the synchronization, and modified
// TreadMarks to use a broadcast"). The root releases its interval and
// ships the raw contents of region elements [lo,hi) to every process;
// receivers install the data and mark the fully covered pages as applied,
// so the subsequent write notices for them cause no page faults. A page
// the range covers only in part keeps its notices: a receiver that still
// holds it invalid repairs it at once and installs the data again, so a
// later fault cannot lay an older diff over the broadcast elements.
// Collective: every process must call it with the same arguments.
func BroadcastRegion[T Elem](tm *Tmk, r *Region[T], lo, hi, root int) {
	r.checkRange(lo, hi)
	nd := tm.nd
	p := tm.p
	n := nd.sys.nprocs
	c := nd.sys.costs
	seq := nd.bcastSeq % barrierSeqSpace
	nd.bcastSeq++
	firstFull := r.basePage + (lo+r.epp-1)/r.epp
	lastFull := r.basePage + hi/r.epp - 1
	if nd.id == root {
		nd.prot.Release(stats.KindPage)
		payload, bytes := r.snapshot(lo, hi)
		msg := bcastMsg{payload: payload}
		for gp := firstFull; gp <= lastFull; gp++ {
			msg.applied = append(msg.applied, nd.prot.Applied(int32(gp)))
		}
		for q := 0; q < n; q++ {
			if q != root {
				p.Send(q, tagBcast+seq, msg, bcastHdr+bytes, stats.KindPage)
			}
		}
		return
	}
	m := p.Recv(root, tagBcast+seq)
	bm := m.Payload.(bcastMsg)
	vals := bm.payload.([]T)
	r.install(lo, hi, vals)
	// A fully covered page is now the root's copy: whatever the root had
	// applied, from any writer, is applied here. Settling the root's own
	// intervals alone would leave an older writer's notice pending, and
	// the next fault would lay that writer's diff over the newer data.
	for i, applied := range bm.applied {
		nd.prot.MarkApplied(int32(firstFull+i), applied)
	}
	p.Advance(c.DiffApplyCost((hi - lo) * r.elemSize))
	// A partly covered page is not the root's copy, so nothing settles
	// it; repair it now and lay the broadcast elements over the repair.
	for gp := r.pageOf(lo); hi > lo && gp <= r.pageOf(hi-1); gp++ {
		if nd.prot.Invalid(int32(gp)) {
			r.validate(lo, hi, false, false)
			r.install(lo, hi, vals)
			break
		}
	}
}
