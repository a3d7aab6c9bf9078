package proto

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The homeless (TreadMarks) protocol, moved from internal/tmk: lazy
// invalidate release consistency where diffs stay distributed at their
// writers. A faulting node fetches the missing diffs from every writer
// with pending notices; diff creation is lazy and one diff can satisfy a
// whole run of write notices from the same process (diff accumulation).

// GCThreshold is the per-page diff-record count that triggers a squash,
// bounding diff storage like TreadMarks' garbage collection. The squash
// is only applied to pages this node is the sole writer of — merging
// records across an interference boundary could reorder causally related
// writes from different nodes. Exported so tests can size workloads
// past the trigger.
const GCThreshold = 32

// diffRec is one extracted diff for a page: a payload of typed segments.
// Records for one page form a chain at the writer (seq ascending); a
// requester holding the chain through some seq needs only newer records.
// upto is the highest *released* writer interval the record covers (for
// settling write notices) and order is the causal sort key (vector-clock
// sum at release), strictly increasing along happens-before.
type diffRec struct {
	page    int32
	seq     int32
	upto    int32
	order   int64
	payload any
	bytes   int
}

// homeless adds two per-page tables to lrcCore's, under the same rules
// (see lrcCore).
type homeless struct {
	lrcCore
	// seqs holds every page's appliedSeq vector: appliedSeq[q], the
	// highest record seq of q applied here, is seqs[nprocs·gp+q].
	seqs   []int32
	recSeq []int32 // recSeq[gp]: this node's record chain position for gp
	recs   map[int32][]*diffRec

	// Per-process scratch (DESIGN.md, internal/proto, "Protocol scratch
	// belongs to one process"). The application process alone writes reqs (reqs[q] is
	// its request to writer q, which q's server reads before replying),
	// writers and recv; the server process alone writes replies
	// (replies[r] answers requester r, who reads it before asking again).
	reqs    []diffRequest
	writers []int
	recv    []recFrom
	replies []diffResponse
}

func newHomeless(h Host) *homeless {
	hl := &homeless{recs: map[int32][]*diffRec{}}
	hl.init(h)
	hl.reqs, hl.replies = make([]diffRequest, hl.nprocs), make([]diffResponse, hl.nprocs)
	return hl
}

func (hl *homeless) Name() Name { return HomelessLRC }

func (hl *homeless) AddPages(npages int) {
	hl.addPages(npages)
	hl.seqs = grow(hl.seqs, npages*hl.nprocs)
	hl.recSeq = grow(hl.recSeq, npages)
}

// appliedSeq returns page gp's appliedSeq vector, a view into seqs like
// lrcCore.vectors'.
func (hl *homeless) appliedSeq(gp int32) []int32 {
	n := hl.nprocs
	o := n * int(gp)
	return hl.seqs[o : o+n : o+n]
}

func (hl *homeless) WriteTouch(gp int32) { hl.writeTouch(gp, true) }

// Applied appends to the shared vector the record-chain positions
// behind it — appliedSeq, this node's own entry at the end of its chain
// — so that a node installing the copy later asks each writer for the
// records the copy lacks, not for the chain from its start.
func (hl *homeless) Applied(gp int32) []int32 {
	v := append(hl.appendApplied(make([]int32, 0, 2*hl.nprocs), gp), hl.appliedSeq(gp)...)
	v[hl.nprocs+hl.id] = hl.recSeq[gp]
	return v
}

// MarkApplied raises both halves of what Applied returned.
func (hl *homeless) MarkApplied(gp int32, applied []int32) {
	hl.lrcCore.MarkApplied(gp, applied[:hl.nprocs])
	have := hl.appliedSeq(gp)
	for q, seq := range applied[hl.nprocs:] {
		if q != hl.id && seq > have[q] {
			have[q] = seq
		}
	}
}

// Release is a pure local operation under the homeless protocol: diffs
// stay here until requested.
func (hl *homeless) Release(stats.Kind) { hl.closeInterval() }

// The homeless protocol has no homes: nothing to rebalance, nothing to
// install.
func (hl *homeless) Rebalance() []DirUpdate                 { return nil }
func (hl *homeless) ApplyDirectory([]DirUpdate, stats.Kind) {}

// diffRequest asks a writer for the diffs of a set of pages.
type diffRequest struct {
	from  int // the requester's node id
	pages []pageAsk
}

type pageAsk struct {
	page    int32
	fromSeq int32 // requester's appliedSeq[writer]: send newer records only
}

// diffResponse carries the records satisfying one request.
type diffResponse struct {
	recs []*diffRec
}

// recFrom is a received record and the writer it came from.
type recFrom struct {
	writer int
	rec    *diffRec
}

// extractPending encodes the pending diff for gp (if any), appending it
// to the page's record chain, and runs GC when the chain grows long. p is
// the process paying the CPU cost: the application process at faults, the
// server process when answering requests.
//
// Labeling: upto is capped at the last *released* interval — a record
// extracted mid-interval carries this node's partial current-interval
// writes (harmless for race-free programs: nobody may conflict with
// unreleased data), but it must not claim to cover the open interval, or
// readers would mark it applied and miss the writes made after
// extraction. order is the causal sort key: the vector-clock sum at the
// covering interval's release (strictly increasing along happens-before),
// estimated as if released now for mid-interval extractions.
func (hl *homeless) extractPending(gp int32, p *sim.Proc) {
	pc := &hl.pages[gp]
	if !pc.hasTwin {
		return
	}
	keep := pc.twinWrite == hl.curInterval
	payload, bytes := hl.h.ExtractDiff(gp, keep)
	pc.hasTwin = keep

	upto := pc.lastSelf
	var order int64
	if upto < hl.curInterval {
		order = hl.orders[upto-1]
	} else {
		upto = hl.curInterval - 1
		order = hl.orderEstimate()
	}
	hl.recSeq[gp]++
	rec := &diffRec{
		page: gp, seq: hl.recSeq[gp], upto: upto, order: order,
		payload: payload, bytes: bytes,
	}
	hl.recs[gp] = append(hl.recs[gp], rec)
	gc := len(hl.recs[gp]) > GCThreshold && hl.soleWriter(gp)
	if gc {
		hl.gcPage(gp)
	}
	p.Advance(hl.h.Costs().DiffCreateCost(diffChangedBytes(bytes)))
	if gc {
		p.Advance(hl.h.Costs().DiffCreateCost(model.PageSize))
	}
}

// soleWriter reports whether no other node has ever write-noticed gp.
func (hl *homeless) soleWriter(gp int32) bool {
	notice, _ := hl.vectors(gp)
	for q := range notice {
		if q != hl.id && notice[q] != 0 {
			return false
		}
	}
	return true
}

// gcPage squashes a sole-writer page's diff records into one dominating
// record carrying the latest sequence number. Pure mutation: the caller
// charges the CPU cost afterwards.
func (hl *homeless) gcPage(gp int32) {
	recs := hl.recs[gp]
	payloads := make([]any, len(recs))
	var maxUpto int32
	var maxOrder int64
	for i, r := range recs {
		payloads[i] = r.payload
		if r.upto > maxUpto {
			maxUpto = r.upto
		}
		if r.order > maxOrder {
			maxOrder = r.order
		}
	}
	payload, bytes := hl.h.MergeDiffs(gp, payloads)
	hl.recSeq[gp]++
	// A new chain, never the old one's array, which a reply may hold; with
	// room for the records up to the next squash, so it grows no more.
	hl.recs[gp] = append(make([]*diffRec, 0, GCThreshold+1), &diffRec{
		page: gp, seq: hl.recSeq[gp], upto: maxUpto, order: maxOrder,
		payload: payload, bytes: bytes,
	})
}

// recsSince returns the records for page gp with seq > fromSeq, in
// chain order: the chain's tail (seqs ascend along a chain), capacity
// clipped, so that a reply can carry it uncopied (DESIGN.md,
// internal/proto, "Who owns consistency data").
func (hl *homeless) recsSince(gp, fromSeq int32) []*diffRec {
	chain := hl.recs[gp]
	i, n := sort.Search(len(chain), func(k int) bool { return chain[k].seq > fromSeq }), len(chain)
	return chain[i:n:n]
}

// Fault repairs an invalid page on the application process: extract any
// pending local diff first (the multiple-writer protocol preserves this
// node's concurrent writes and keeps the twin honest), then fetch the
// missing diffs from every writer with pending notices — one request per
// writer, one page per request, as in base TreadMarks.
func (hl *homeless) Fault(gp int32) {
	p := hl.h.AppProc()
	c := hl.h.Costs()
	start := int64(p.Now())
	p.Advance(c.ReadFault)
	hl.ctr.Faults++
	hl.extractPending(gp, p)

	hl.writers = hl.writers[:0]
	for q := 0; q < hl.nprocs; q++ {
		notice, applied := hl.vectors(gp) // again after every Send
		if q == hl.id || notice[q] <= applied[q] {
			continue
		}
		hl.writers = append(hl.writers, q)
		req := &hl.reqs[q]
		req.from, req.pages = hl.id, append(req.pages, pageAsk{page: gp, fromSeq: hl.appliedSeq(gp)[q]})
		p.Send(hl.h.ServerOf(q), tagDiffReq, req, diffReqHdr+diffReqPerPage, stats.KindDiffReq)
		c.Trace.Instant(obs.EvDiffReq, p.ID(), int64(p.Now()), stats.KindDiffReq, gp, int64(q))
	}
	hl.collectAndApply()
	c.Trace.Span(obs.EvFault, p.ID(), start, int64(p.Now())-start, stats.KindPage, gp, int64(len(hl.writers)))
}

// FetchAggregated repairs all invalid pages of gps with a single request
// per remote writer — the data-aggregation hand optimization of §5 (the
// enhanced interface of Dwarkadas et al. [7]). No communication happens
// if nothing is pending.
func (hl *homeless) FetchAggregated(gps []int32) {
	p := hl.h.AppProc()
	c := hl.h.Costs()
	first := int32(-1)
	for _, gp := range gps {
		if !hl.Invalid(gp) {
			continue
		}
		hl.extractPending(gp, p)
		if first < 0 {
			first = gp
		}
		notice, applied := hl.vectors(gp) // after extractPending's Advance
		seqs := hl.appliedSeq(gp)
		for q := 0; q < hl.nprocs; q++ {
			if q == hl.id || notice[q] <= applied[q] {
				continue
			}
			hl.reqs[q].pages = append(hl.reqs[q].pages, pageAsk{page: gp, fromSeq: seqs[q]})
		}
	}
	hl.writers = hl.writers[:0]
	for q := range hl.reqs {
		if len(hl.reqs[q].pages) > 0 {
			hl.writers = append(hl.writers, q)
		}
	}
	if len(hl.writers) == 0 {
		return
	}
	start := int64(p.Now())
	p.Advance(c.ReadFault) // one access miss covers the whole range
	hl.ctr.Faults++
	for _, q := range hl.writers {
		req := &hl.reqs[q]
		req.from = hl.id
		bytes := diffReqHdr + len(req.pages)*diffReqPerPage
		p.Send(hl.h.ServerOf(q), tagDiffReq, req, bytes, stats.KindDiffReq)
		c.Trace.Instant(obs.EvDiffReq, p.ID(), int64(p.Now()), stats.KindDiffReq, -1, int64(q))
	}
	hl.collectAndApply()
	c.Trace.Span(obs.EvFault, p.ID(), start, int64(p.Now())-start, stats.KindPage, first, int64(len(hl.writers)))
}

// collectAndApply receives one diffResponse from each of hl.writers
// and applies all received records in causal order: ascending
// release-order label, which is strictly increasing along
// happens-before, with writer id breaking ties among concurrent records
// (whose byte ranges are disjoint in race-free programs). Finally the
// asked pages' notice tables are settled: everything noticed from the
// queried writers is now applied.
func (hl *homeless) collectAndApply() {
	p := hl.h.AppProc()
	c := hl.h.Costs()
	hl.recv = hl.recv[:0]
	for _, q := range hl.writers {
		m := p.Recv(hl.h.ServerOf(q), tagDiffResp)
		c.Trace.Instant(obs.EvDiffReply, p.ID(), int64(p.Now()), stats.KindDiff, -1, int64(q))
		for _, r := range m.Payload.(*diffResponse).recs {
			hl.recv = append(hl.recv, recFrom{writer: q, rec: r})
		}
	}
	slices.SortStableFunc(hl.recv, func(a, b recFrom) int {
		return cmp.Or(cmp.Compare(a.rec.order, b.rec.order), cmp.Compare(a.writer, b.writer))
	})
	for _, rf := range hl.recv {
		hl.applyRec(rf.rec, rf.writer)
		p.Advance(c.DiffApplyCost(diffChangedBytes(rf.rec.bytes)))
	}
	// The writers have, by construction, answered with their complete
	// chains: every pending notice from them on the asked pages is
	// satisfied even when the matching diff was empty. The requests are
	// done with: between faults, every reqs[q] is empty.
	for _, q := range hl.writers {
		for _, ask := range hl.reqs[q].pages {
			if notice, applied := hl.vectors(ask.page); notice[q] > applied[q] {
				applied[q] = notice[q]
			}
		}
		hl.reqs[q].pages = hl.reqs[q].pages[:0]
	}
}

// applyRec applies writer's diff record r and raises the page's applied
// and appliedSeq entries for writer to what r covers. Pure mutation: the
// caller charges the CPU cost afterwards.
func (hl *homeless) applyRec(r *diffRec, writer int) {
	hl.h.ApplyDiff(r.page, r.payload)
	hl.ctr.DiffsApplied++
	if _, applied := hl.vectors(r.page); r.upto > applied[writer] {
		applied[writer] = r.upto
	}
	if seqs := hl.appliedSeq(r.page); r.seq > seqs[writer] {
		seqs[writer] = r.seq
	}
}

// pushMsg carries pushed diffs.
type pushMsg struct {
	proc int
	recs []*diffRec
}

// FirePushes implements the §8 producer-push optimization: send all
// registered pushes, then consume all expected ones.
func (hl *homeless) FirePushes(p *sim.Proc, seq int, kind stats.Kind, pushes []*PushDirective, expects []int) {
	c := hl.h.Costs()
	for _, d := range pushes {
		var recs []*diffRec
		bytes := pushHdr
		for gp := d.First; gp <= d.Last; gp++ {
			hl.extractPending(gp, p)
			tail := hl.recsSince(gp, d.SentSeq[gp-d.First])
			recs = append(recs, tail...)
			for _, r := range tail {
				bytes += r.bytes
				d.SentSeq[gp-d.First] = r.seq
			}
		}
		k := stats.KindDiff
		if kind == stats.KindShutdown {
			k = stats.KindShutdown
		}
		p.Send(d.Dest, tagPush+seq, pushMsg{proc: hl.id, recs: recs}, bytes, k)
	}
	for _, src := range expects {
		m := p.Recv(src, tagPush+seq)
		pm := m.Payload.(pushMsg)
		for _, r := range pm.recs {
			hl.applyRec(r, pm.proc)
			p.Advance(c.DiffApplyCost(diffChangedBytes(r.bytes)))
		}
	}
}

// HandleServer services a diff request on the server process.
func (hl *homeless) HandleServer(p *sim.Proc, m sim.Message) bool {
	if m.Tag != tagDiffReq {
		return false
	}
	p.Advance(hl.h.Costs().HandlerWake)
	req := m.Payload.(*diffRequest)
	resp := &hl.replies[req.from]
	bytes := 8
	// Extract, then cut, one ask at a time: extractPending can yield,
	// and the application process can meanwhile append to a chain.
	for i, ask := range req.pages {
		hl.extractPending(ask.page, p)
		tail := hl.recsSince(ask.page, ask.fromSeq)
		if i == 0 {
			resp.recs = tail
		} else {
			resp.recs = append(resp.recs, tail...)
		}
		for _, r := range tail {
			bytes += r.bytes
		}
	}
	p.Send(m.Src, tagDiffResp, resp, bytes, stats.KindDiff)
	return true
}

// diffChangedBytes estimates the changed-data volume in a payload for
// CPU cost charging.
func diffChangedBytes(bytes int) int {
	if bytes < DiffRecHdr {
		return 0
	}
	return bytes - DiffRecHdr
}
