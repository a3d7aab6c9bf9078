package proto

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The home-based LRC protocol (HLRC, after Zhou/Iftode/Li's home-based
// protocols and Cudennec's survey of S-DSM design axes): every page has
// a home node whose copy is the master copy.
//
//   - Home *placement* is a policy (policy.go): static block-wise
//     assignment by default, or the migrating first-touch/adaptive
//     policies, which repoint pages through barrier-arbitrated
//     directory updates. The coherence mechanism below is identical
//     under every policy.
//   - At every release, the writer extracts the diffs of its dirtied
//     remote-homed pages and flushes them to the homes, one message per
//     home, and waits for the acknowledgments before the release
//     completes. This makes the home's copy current before any causally
//     later acquire can observe the release — the invariant the fetch
//     path relies on.
//   - Write notices (invalidations) propagate exactly as in the homeless
//     protocol, through the shared LRC core.
//   - A fault fetches the whole page from its home in one round trip,
//     regardless of how many writers modified it: fewer messages than
//     homeless diff collection on multi-writer pages, more bytes than a
//     sparse diff.
//
// Directory changes and staleness. Every directory update is decided at
// one barrier (the manager arbitrates the policies' proposals) and
// installed by each node as it leaves that barrier, so a node never
// *sends* protocol traffic under a directory older than the newest
// decided epoch. A *server*, however, can still be an epoch behind its
// clients — its application process may not have processed its own
// barrier departure yet — and during a migration the new home may still
// be pulling the page's contents from the old home. Both windows are
// closed by NACKs: a flush or page request that cannot be served is
// rejected page-by-page with the server's directory mapping and epoch,
// and the sender re-sends — to the corrected home when the NACK carries
// a newer directory, to the same home (a pure retry) when it does not.
// The migration pull itself travels on dedicated tags and is served
// from the old home's retained copy, which is current through every
// release the new home can have heard of; diffs that arrive at the new
// home while the pull is in flight are stashed and re-applied over the
// installed snapshot.
//
// The protocol trades release latency (synchronous flush round trip) and
// whole-page transfer volume for single-round-trip faults and zero diff
// storage at third parties. Race-free programs compute bit-identical
// results under both protocols and all home policies; the equivalence
// tests in internal/harness assert this on every application.

// staleRetryLimit bounds the redirect/retry rounds of one flush or
// fetch. Directory epochs advance once per barrier and servers lag
// their clients by at most one epoch, so a handful of rounds settles
// any race; hitting the bound means the directory never converged.
const staleRetryLimit = 64

// pullState tracks one in-flight migration pull at a page's new home:
// diffs flushed to the new home before the old home's snapshot arrives
// are stashed and re-applied over the installed snapshot.
type pullState struct {
	stash []any
}

type home struct {
	lrcCore
	pol      homePolicy
	dirEpoch int32                // barrier epochs with directory updates installed
	pulls    map[int32]*pullState // pages this node gained and is still pulling

	// Per-process scratch (DESIGN.md "What a message costs the host",
	// rule 6): Release's and a fault's, on the application process; a
	// home reads flushes[hm] and reqs[hm] before it answers.
	end     []int
	flushed []flushPage
	ackFrom []int
	flushes []flushMsg
	reqs    []pageReq
	retry   [][]pageNeed
	needs   []int32
	locals  []flushPage
	// replies[r] is the server process's answer to requester r, who
	// reads it before asking again.
	replies []pageResp
}

func newHome(h Host, policy PolicyName) *home {
	hb := &home{pulls: map[int32]*pullState{}}
	hb.init(h)
	hb.pol = newHomePolicy(policy, hb.nprocs, hb.id)
	n := hb.nprocs
	hb.end, hb.flushes, hb.reqs = make([]int, n+1), make([]flushMsg, n), make([]pageReq, n)
	hb.retry, hb.replies = make([][]pageNeed, n), make([]pageResp, n)
	return hb
}

func (hb *home) Name() Name { return HomeLRC }

// AddPages registers the new region's pages with the home policy, which
// assigns the initial block-wise homes (identical on every node).
func (hb *home) AddPages(npages int) {
	hb.addPages(npages)
	hb.pol.AddPages(npages)
}

func (hb *home) homeOf(gp int32) int { return hb.pol.homeOf(gp) }

// WriteTouch: self-homed pages skip twinning — the node's copy is the
// master copy, so write detection (for notices) is all that is needed.
// The policy observes every write touch (first-touch claims).
func (hb *home) WriteTouch(gp int32) {
	hb.pol.noteWrite(gp)
	hb.writeTouch(gp, hb.homeOf(gp) != hb.id)
}

// flushPage is one page's diff inside a flush message.
type flushPage struct {
	page    int32
	payload any
	bytes   int
}

// flushMsg carries a release's diffs for the pages homed at one node,
// stamped with the writer's directory epoch so a lagging home can tell
// a misdirected flush from one it should retry-NACK.
type flushMsg struct {
	writer   int
	interval int32 // the releasing interval the diffs belong to
	epoch    int32 // the writer's installed directory epoch
	shutdown bool  // classify the ack as shutdown traffic too
	pages    []flushPage
}

// flushAck acknowledges a flush. rejected lists the pages the server
// could not accept, each mapped to the server's current home for it,
// together with the server's directory epoch: the writer re-sends those
// pages — to the corrected homes when the NACK's directory is no older
// than its own, to the same home otherwise (a retry while the server
// catches up).
type flushAck struct {
	epoch    int32
	rejected []DirUpdate
}

// Release closes the open interval after eagerly flushing the dirtied
// remote-homed pages' diffs to their homes. The release blocks until
// every home has acknowledged every page, re-sending any page that a
// stale or mid-migration home NACKed, so the homes are current before
// any causally later acquire.
func (hb *home) Release(kind stats.Kind) {
	p := hb.h.AppProc()
	c := hb.h.Costs()
	flushKind := stats.KindDiff
	shutdown := kind == stats.KindShutdown
	if shutdown {
		flushKind = stats.KindShutdown
	}

	// flushed holds the diffs grouped by home, homes ascending and pages
	// in dirty order within one: home hm's are flushed[end[hm-1]:end[hm]]
	// (from 0 for home 0). The diffs are lent by the host — every home
	// copies what it applies, a mid-pull stash keeps its own copy — so
	// each buffer goes back once the last ack, NACK re-sends included,
	// is in.
	end := hb.end
	clear(end)
	for _, gp := range hb.dirty {
		if hm := hb.homeOf(gp); hm != hb.id {
			end[hm+1]++
		}
	}
	for hm := 1; hm <= hb.nprocs; hm++ {
		end[hm] += end[hm-1]
	}
	flushed := slices.Grow(hb.flushed[:0], end[hb.nprocs])[:end[hb.nprocs]]
	hb.flushed = flushed
	for _, gp := range hb.dirty {
		hm := hb.homeOf(gp)
		if hm == hb.id {
			continue // the live copy is the master copy
		}
		pc := &hb.pages[gp]
		if !pc.hasTwin {
			panic("proto: dirty remote-homed page without twin")
		}
		payload, bytes := hb.h.LendDiff(gp)
		pc.hasTwin = false
		flushed[end[hm]] = flushPage{page: gp, payload: payload, bytes: bytes}
		end[hm]++
		p.Advance(c.DiffCreateCost(diffChangedBytes(bytes)))
	}
	interval := hb.curInterval
	sendFlush := func(hm int, pages []flushPage, resend bool) {
		msg := &hb.flushes[hm]
		if resend {
			msg = new(flushMsg) // hm may not have read the first flush yet
		}
		*msg = flushMsg{writer: hb.id, interval: interval, epoch: hb.dirEpoch, shutdown: shutdown, pages: pages}
		bytes := flushHdr
		for _, fp := range pages {
			bytes += fp.bytes
		}
		if resend {
			hb.ctr.RedirectedFlushBytes += int64(bytes)
		}
		p.Send(hb.h.ServerOf(hm), tagFlush, msg, bytes, flushKind)
	}
	hb.ackFrom = hb.ackFrom[:0]
	for hm, lo := 0, 0; hm < hb.nprocs; hm++ {
		if hi := end[hm]; hi > lo {
			sendFlush(hm, flushed[lo:hi:hi], false)
			hb.ackFrom = append(hb.ackFrom, hm)
			lo = hi
		}
	}
	hb.closeInterval()
	// sent indexes every flushed page for NACK re-sends; built lazily
	// on the first rejection so the common settled path (always, under
	// the static policy) pays nothing for it.
	var sent map[int32]flushPage
	for round := 0; round < len(hb.ackFrom); round++ {
		if round > staleRetryLimit {
			panic("proto: home flush never settled (directory did not converge)")
		}
		hm := hb.ackFrom[round]
		m := p.Recv(hb.h.ServerOf(hm), tagFlushAck)
		ack, _ := m.Payload.(flushAck)
		if len(ack.rejected) == 0 {
			continue
		}
		if ack.epoch >= hb.dirEpoch {
			hb.pol.apply(ack.rejected) // learn the newer directory
		}
		if sent == nil {
			sent = make(map[int32]flushPage, len(flushed))
			for _, fp := range flushed {
				sent[fp.page] = fp
			}
		}
		re := make([][]flushPage, hb.nprocs)
		for _, u := range ack.rejected {
			nh := hb.homeOf(u.Page)
			re[nh] = append(re[nh], sent[u.Page])
		}
		for nh, pages := range re {
			if len(pages) > 0 {
				sendFlush(nh, pages, true)
				hb.ackFrom = append(hb.ackFrom, nh)
			}
		}
	}
	for _, fp := range flushed {
		hb.h.ReturnDiff(fp.page, fp.payload)
	}
}

// pageNeed asks the home for a page, carrying the requester's pending
// notice vector for it. The home asserts its copy already covers the
// need — guaranteed by the acknowledged-flush-before-release invariant.
type pageNeed struct {
	page int32
	need []int32
}

type pageReq struct {
	from  int   // the requester's node id
	epoch int32 // the requester's installed directory epoch
	pages []pageNeed
}

// pageCopy is one page in a reply: the full contents plus the home's
// applied vector, which settles the requester's notices for every
// writer at once.
type pageCopy struct {
	page    int32
	data    any
	bytes   int
	applied []int32
}

// pageResp answers a page request. rejected lists pages the server
// could not serve (not homed here, or mid-migration), mapped to the
// server's current home for them; the requester re-asks as for a flush
// NACK.
type pageResp struct {
	epoch    int32
	pages    []pageCopy
	rejected []DirUpdate
	vecs     []int32 // storage of the pages' applied vectors
}

// migReq is a new home's migration pull: after a directory update moved
// pages here, fetch their contents from the old home. Served from the
// old home's retained copy regardless of its directory state.
type migReq struct {
	shutdown bool
	pages    []pageNeed
}

// Fault repairs an invalid page with a single whole-page fetch from its
// home: a one-page aggregated fetch (same messages, bytes and costs).
func (hb *home) Fault(gp int32) { hb.FetchAggregated([]int32{gp}) }

// FetchAggregated repairs all invalid pages of gps with one whole-page
// request per distinct home, re-asking per the NACKed directory when a
// home moved underneath the fault.
func (hb *home) FetchAggregated(gps []int32) {
	p := hb.h.AppProc()
	c := hb.h.Costs()
	// The reqs are empty: every fault's last round leaves them so.
	hb.needs, hb.locals = hb.needs[:0], hb.locals[:0]
	for _, gp := range gps {
		if !hb.Invalid(gp) {
			continue
		}
		hm := hb.homeOf(gp)
		if hm == hb.id {
			panic("proto: home node faulted on its own page (flush invariant broken)")
		}
		if payload, ok := hb.extractLocal(gp, p); ok {
			hb.locals = append(hb.locals, flushPage{page: gp, payload: payload})
		}
		hb.reqs[hm].pages = append(hb.reqs[hm].pages, hb.needOf(gp))
	}
	first := slices.IndexFunc(hb.reqs, func(r pageReq) bool { return len(r.pages) > 0 })
	if first < 0 {
		return
	}
	firstPage, start, peers := hb.reqs[first].pages[0].page, int64(p.Now()), 0
	p.Advance(c.ReadFault) // one access miss covers the whole range
	hb.ctr.Faults++
	for round, asked := 0, true; asked; round++ {
		if round > staleRetryLimit {
			panic("proto: page fetch never settled (directory did not converge)")
		}
		for hm := range hb.reqs {
			req := &hb.reqs[hm]
			if len(req.pages) == 0 {
				continue
			}
			req.from, req.epoch = hb.id, hb.dirEpoch
			bytes := pageReqHdr + len(req.pages)*(pageReqPerPage+pageRespPerVC*hb.nprocs)
			p.Send(hb.h.ServerOf(hm), tagPageReq, req, bytes, stats.KindPageReq)
			peers++
			c.Trace.Instant(obs.EvPageReq, p.ID(), int64(p.Now()), stats.KindPageReq, req.pages[0].page, int64(hm))
		}
		for hm := range hb.reqs {
			if len(hb.reqs[hm].pages) == 0 {
				continue
			}
			resp := p.Recv(hb.h.ServerOf(hm), tagPageResp).Payload.(*pageResp)
			for _, pg := range resp.pages {
				hb.installPage(p, pg, hb.locals)
			}
			if len(resp.rejected) == 0 {
				continue
			}
			if resp.epoch >= hb.dirEpoch {
				hb.pol.apply(resp.rejected)
			}
			for _, u := range resp.rejected {
				i := slices.IndexFunc(hb.reqs[hm].pages, func(pn pageNeed) bool { return pn.page == u.Page })
				nh := hb.homeOf(u.Page)
				hb.retry[nh] = append(hb.retry[nh], hb.reqs[hm].pages[i])
			}
		}
		asked = false
		for hm := range hb.reqs {
			hb.reqs[hm].pages, hb.retry[hm] = hb.retry[hm], hb.reqs[hm].pages[:0]
			asked = asked || len(hb.reqs[hm].pages) > 0
		}
	}
	c.Trace.Span(obs.EvFault, p.ID(), start, int64(p.Now())-start, stats.KindPage, firstPage, int64(peers))
}

// extractLocal preserves this node's unreleased writes to gp before the
// page is overwritten by the home's copy (the multiple-writer case). It
// returns the diff payload to re-apply after installation, if any: a
// lent one, which installPage hands back.
func (hb *home) extractLocal(gp int32, p *sim.Proc) (any, bool) {
	pc := &hb.pages[gp]
	if !pc.hasTwin {
		return nil, false
	}
	payload, bytes := hb.h.LendDiff(gp)
	pc.hasTwin = false
	p.Advance(hb.h.Costs().DiffCreateCost(diffChangedBytes(bytes)))
	return payload, true
}

// needOf snapshots the page's pending notice vector for a request into
// hb.needs, which the caller emptied (application process).
func (hb *home) needOf(gp int32) pageNeed {
	notice, _ := hb.vectors(gp)
	hb.needs = append(hb.needs, notice...)
	return pageNeed{page: gp, need: hb.needs[len(hb.needs)-hb.nprocs:]}
}

// installPage installs a fetched page copy: overwrite the local page,
// settle the notice table from the home's applied vector, and re-apply
// any preserved local writes (locals) on a refreshed twin (so the next
// flush diffs against the home image).
func (hb *home) installPage(p *sim.Proc, pg pageCopy, locals []flushPage) {
	c := hb.h.Costs()
	hb.h.InstallPage(pg.page, pg.data)
	hb.ctr.PageFetches++
	c.Trace.Instant(obs.EvPageFetch, p.ID(), int64(p.Now()), stats.KindPage, pg.page, 0)
	hb.MarkApplied(pg.page, pg.applied)
	p.Advance(c.PageCopy)
	if i := slices.IndexFunc(locals, func(l flushPage) bool { return l.page == pg.page }); i >= 0 {
		hb.h.MakeTwin(pg.page) // twin = home image: next diff is ours alone
		pc := &hb.pages[pg.page]
		pc.hasTwin = true
		pc.twinWrite = hb.curInterval
		hb.h.ApplyDiff(pg.page, locals[i].payload)
		hb.h.ReturnDiff(pg.page, locals[i].payload)
		hb.ctr.DiffsApplied++
		p.Advance(c.DiffApply)
	}
}

// Rebalance closes a barrier epoch for the home policy and returns its
// directory proposals for arbitration.
func (hb *home) Rebalance() []DirUpdate { return hb.pol.Rebalance() }

// ApplyDirectory installs the barrier-arbitrated directory updates.
// For every page this node gained whose local copy it cannot prove
// current (pending write notices), it synchronously pulls the contents
// from the old home before returning — i.e. before this node can leave
// the barrier — stashing and re-applying any diffs that race the pull.
func (hb *home) ApplyDirectory(us []DirUpdate, kind stats.Kind) {
	if len(us) == 0 {
		return
	}
	olds := make([]int, len(us))
	for i, u := range us {
		olds[i] = hb.homeOf(u.Page)
	}
	hb.pol.apply(us)
	hb.dirEpoch++
	tr := hb.h.Costs().Trace
	if tr.Enabled() && hb.id == 0 {
		// One epoch marker per directory decision, on the manager node.
		tr.Instant(obs.EvMigrationEpoch, hb.h.AppProc().ID(), int64(hb.h.AppProc().Now()), kind, -1, int64(len(us)))
	}
	perOld, pulling := make([][]int32, hb.nprocs), false
	for i, u := range us {
		if int(u.home) != hb.id || olds[i] == hb.id {
			continue
		}
		hb.ctr.Migrations++
		if tr.Enabled() {
			tr.Instant(obs.EvHomeMove, hb.h.AppProc().ID(), int64(hb.h.AppProc().Now()), kind, u.Page, int64(olds[i]))
		}
		if hb.Invalid(u.Page) {
			perOld[olds[i]] = append(perOld[olds[i]], u.Page)
			hb.pulls[u.Page], pulling = &pullState{}, true
		}
	}
	if !pulling {
		return
	}
	p := hb.h.AppProc()
	c := hb.h.Costs()
	reqKind := stats.KindPageReq
	shutdown := kind == stats.KindShutdown
	if shutdown {
		reqKind = stats.KindShutdown
	}
	hb.needs = hb.needs[:0]
	for hm, gps := range perOld {
		if len(gps) == 0 {
			continue
		}
		req := migReq{shutdown: shutdown}
		for _, gp := range gps {
			req.pages = append(req.pages, hb.needOf(gp))
		}
		bytes := pageReqHdr + len(req.pages)*(pageReqPerPage+pageRespPerVC*hb.nprocs)
		p.Send(hb.h.ServerOf(hm), tagMigReq, req, bytes, reqKind)
	}
	for hm, gps := range perOld {
		if len(gps) == 0 {
			continue
		}
		m := p.Recv(hb.h.ServerOf(hm), tagMigResp)
		for _, pg := range m.Payload.(*pageResp).pages {
			hb.installPage(p, pg, nil)
			ps := hb.pulls[pg.page]
			for _, payload := range ps.stash {
				// A diff flushed here while the pull was in flight:
				// re-apply it over the installed snapshot (its notice
				// bookkeeping already happened at first application).
				hb.h.ApplyDiff(pg.page, payload)
				hb.ctr.DiffsApplied++
				p.Advance(c.DiffApply)
			}
			delete(hb.pulls, pg.page)
		}
	}
}

// FirePushes: the push optimization ships diff records, which only the
// homeless protocol keeps; under HLRC every release already pushes diffs
// to the home eagerly, so directives and expectations are ignored and
// consumers fetch from the home on demand.
func (hb *home) FirePushes(p *sim.Proc, seq int, kind stats.Kind, pushes []*PushDirective, expects []int) {
}

// HandleServer services home-side traffic: eager flushes, whole-page
// fetch requests, and migration pulls.
func (hb *home) HandleServer(p *sim.Proc, m sim.Message) bool {
	c := hb.h.Costs()
	switch m.Tag {
	case tagFlush:
		p.Advance(c.HandlerWake)
		fm := m.Payload.(*flushMsg)
		var rejected []DirUpdate
		for _, fp := range fm.pages {
			hm := hb.homeOf(fp.page)
			switch {
			case hm != hb.id:
				// Misdirected: the writer's directory (or ours) is
				// stale. NACK with our mapping and let the writer
				// re-send.
				hb.ctr.StaleForwards++
				rejected = append(rejected, DirUpdate{Page: fp.page, home: int32(hm)})
				continue
			case fm.epoch > hb.dirEpoch:
				// The writer runs a directory epoch we have not
				// installed yet — we may be about to lose this page.
				// Don't guess; the writer retries once we catch up.
				hb.ctr.StaleForwards++
				rejected = append(rejected, DirUpdate{Page: fp.page, home: int32(hb.id)})
				continue
			}
			hb.h.ApplyDiff(fp.page, fp.payload)
			hb.ctr.DiffsApplied++
			if _, applied := hb.vectors(fp.page); fm.interval > applied[fm.writer] {
				applied[fm.writer] = fm.interval
			}
			hb.pol.noteFlush(fp.page, fm.writer, fp.bytes)
			if ps := hb.pulls[fp.page]; ps != nil {
				// The writer takes its buffer back at the ack: keep a copy.
				keep, _ := hb.h.MergeDiffs(fp.page, []any{fp.payload})
				ps.stash = append(ps.stash, keep)
			}
			p.Advance(c.DiffApplyCost(diffChangedBytes(fp.bytes)))
		}
		ackKind := stats.KindControl
		if fm.shutdown {
			ackKind = stats.KindShutdown
		}
		var ack any // nil: every page accepted, and the writer reads nothing else
		if len(rejected) > 0 {
			ack = flushAck{epoch: hb.dirEpoch, rejected: rejected}
		}
		p.Send(m.Src, tagFlushAck, ack, flushAckBytes+DirUpdateBytes(rejected), ackKind)
		return true
	case tagPageReq:
		p.Advance(c.HandlerWake)
		req := m.Payload.(*pageReq)
		resp := &hb.replies[req.from]
		*resp = pageResp{epoch: hb.dirEpoch, pages: resp.pages[:0], rejected: resp.rejected[:0], vecs: resp.vecs[:0]}
		bytes := pageRespHdr
		for _, pn := range req.pages {
			hm := hb.homeOf(pn.page)
			switch {
			case hm != hb.id:
				hb.ctr.StaleForwards++
				resp.rejected = append(resp.rejected, DirUpdate{Page: pn.page, home: int32(hm)})
				continue
			case hb.pulls[pn.page] != nil || req.epoch > hb.dirEpoch:
				// Mid-migration (our pull of the page is in flight) or
				// the requester is an epoch ahead: have it retry.
				hb.ctr.StaleForwards++
				resp.rejected = append(resp.rejected, DirUpdate{Page: pn.page, home: int32(hb.id)})
				continue
			}
			_, applied := hb.vectors(pn.page)
			for q := 0; q < hb.nprocs; q++ {
				if q == hb.id {
					continue // own writes are in the live copy by definition
				}
				if pn.need[q] > applied[q] {
					panic(fmt.Sprintf(
						"proto: home %d behind on page %d: need interval %d of writer %d, have %d "+
							"(flush-before-release invariant broken)",
						hb.id, pn.page, pn.need[q], q, applied[q]))
				}
			}
			bytes += hb.copyOf(resp, pn.page)
		}
		bytes += DirUpdateBytes(resp.rejected)
		p.Send(m.Src, tagPageResp, resp, bytes, stats.KindPage)
		return true
	case tagMigReq:
		p.Advance(c.HandlerWake)
		req := m.Payload.(migReq)
		resp := new(pageResp)
		bytes := pageRespHdr
		for _, pn := range req.pages {
			// Served regardless of our directory state: we were the
			// page's home when the update was decided, and our retained
			// copy is current through every release the new home can
			// have heard of.
			_, applied := hb.vectors(pn.page)
			for q := 0; q < hb.nprocs; q++ {
				if q == hb.id {
					continue
				}
				if pn.need[q] > applied[q] {
					panic(fmt.Sprintf(
						"proto: old home %d behind on migrating page %d: need interval %d of writer %d, have %d",
						hb.id, pn.page, pn.need[q], q, applied[q]))
				}
			}
			bytes += hb.copyOf(resp, pn.page)
		}
		respKind := stats.KindPage
		if req.shutdown {
			respKind = stats.KindShutdown
		}
		p.Send(m.Src, tagMigResp, resp, bytes, respKind)
		return true
	}
	return false
}

// copyOf adds a snapshot of a page and its applied vector to a reply
// and returns the bytes they add to it. The copy carries every released
// write of this node itself.
func (hb *home) copyOf(r *pageResp, gp int32) int {
	data, sz := hb.h.SnapshotPage(gp)
	r.vecs = hb.appendApplied(r.vecs, gp)
	r.pages = append(r.pages, pageCopy{page: gp, data: data, bytes: sz, applied: r.vecs[len(r.vecs)-hb.nprocs:]})
	return sz + pageRespPerVC*hb.nprocs
}
