package proto

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// This file is the lazy-release-consistency core shared by both
// protocols: vector timestamps, intervals, write notices and their
// run-length-encoded wire format. It was extracted from internal/tmk's
// system.go when the protocol layer became pluggable. The two protocols
// differ only in how modified *data* travels; the invalidation
// information modeled here is common.

// IntervalRec is a released interval: the pages its owner wrote.
type IntervalRec struct {
	Interval int32
	Pages    []int32
}

// NoticeBatch is consistency information in flight: per-process interval
// records the receiver has not seen.
type NoticeBatch struct {
	Proc      int
	Intervals []IntervalRec
}

// BatchBytes models the wire size of a batch of notices. Write notices
// for consecutive pages are run-length encoded — an interval that
// dirtied a contiguous block of pages (every regular application) costs
// one range record, while scattered writes (MGS's cyclic vectors) cost
// one record per run. This matches the linear-in-runs notice volumes of
// Tables 2 and 3.
func BatchBytes(bs []NoticeBatch) int {
	n := 0
	for _, b := range bs {
		for _, iv := range b.Intervals {
			n += 16 // interval header
			n += pageRuns(iv.Pages) * 8
		}
	}
	return n
}

// pageRuns counts maximal runs of consecutive page ids (the pages slice
// is in write-touch order, which is ascending for sweeps).
func pageRuns(pages []int32) int {
	runs := 0
	for i, pg := range pages {
		if i == 0 || pg != pages[i-1]+1 {
			runs++
		}
	}
	return runs
}

// pageCommon is the per-page protocol metadata both protocols keep
// besides the per-writer vectors, which live in lrcCore.vecs.
type pageCommon struct {
	hasTwin   bool
	twinWrite int32 // interval of the most recent write fault
	lastSelf  int32 // last interval in which this node noticed the page
}

// lrcCore is the consistency state shared by both protocol
// implementations.
//
// Per-page state lives in flat tables with one entry (or one nprocs-long
// vector) per registered page: pages, vecs, and the protocol's and its
// home policy's own tables beside them. Each grows by exactly a region's
// pages when the region registers (AddPages, on the application
// process), reallocating at most once (grow), so a table can move
// whenever a later region registers. A view into one (vectors,
// homeless.appliedSeq) or a &pages[gp] pointer must therefore not be
// used after a yield point (Advance, Send, Recv), during which the
// application process may register a region, nor after AddPages: take
// it again.
type lrcCore struct {
	h      Host
	id     int
	nprocs int

	vc          []int32         // vc[q] = latest interval of q incorporated
	curInterval int32           // my open (unreleased) interval
	dirty       []int32         // pages write-noticed in the open interval
	log         [][]IntervalRec // the run's released intervals per process (Host.IntervalLog)
	orders      []int64         // orders[k-1]: causal sort key of own interval k
	pages       []pageCommon
	// vecs holds every page's notice vector then its applied vector:
	// notice[q], the highest pending interval of writer q, is
	// vecs[2·nprocs·gp+q]; applied[q], the highest interval of q applied
	// here, follows at +nprocs.
	vecs []int32
	ctr  Counters
}

func (lc *lrcCore) init(h Host) {
	lc.h = h
	lc.id = h.NodeID()
	lc.nprocs = h.NProcs()
	lc.vc = make([]int32, lc.nprocs)
	lc.curInterval = 1
	lc.log = h.IntervalLog()
}

// addPages registers npages fresh pages.
func (lc *lrcCore) addPages(npages int) {
	lc.pages = grow(lc.pages, npages)
	lc.vecs = grow(lc.vecs, 2*npages*lc.nprocs)
}

// grow returns s extended by exactly n zero elements: a table registers
// a region's pages at once, never one element at a time. slices.Grow
// reallocates at most once, with append's spare capacity, so that the
// small regions registered after a large one (SPF's control words and
// reductions) mostly fit without another copy of the table.
func grow[T any](s []T, n int) []T { return append(slices.Grow(s, n), make([]T, n)...) }

// vectors returns page gp's notice and applied vectors: views into
// vecs, nprocs long with their capacity clipped (see lrcCore for how
// long a view may be kept).
func (lc *lrcCore) vectors(gp int32) (notice, applied []int32) {
	n := lc.nprocs
	o := 2 * n * int(gp)
	return lc.vecs[o : o+n : o+n], lc.vecs[o+n : o+2*n : o+2*n]
}

// writeTouch performs the write-access bookkeeping for page gp: twin the
// page on the first write of an interval (the mprotect write-trap
// equivalent, when the protocol needs a twin) and register it for a
// write notice at the next release.
// Concurrency note (applies to every protocol mutation in this package):
// Advance is a scheduler yield point, so the node's server process may run
// in the middle of any sequence that calls it. All protocol state must
// therefore be mutated *first* and the virtual CPU time charged *after*,
// keeping every critical section atomic between scheduling points.
// needTwin is false for pages whose live copy already is the master copy
// (a home node's own pages): write detection still happens, twinning
// does not.
func (lc *lrcCore) writeTouch(gp int32, needTwin bool) {
	pc := &lc.pages[gp]
	c := lc.h.Costs()
	var cost sim.Time
	if needTwin && !pc.hasTwin {
		lc.h.MakeTwin(gp)
		lc.ctr.Twins++
		pc.hasTwin = true
		pc.twinWrite = lc.curInterval
		cost = c.WriteFault + c.TwinPage
	} else if pc.twinWrite < lc.curInterval {
		// New interval: the page was write-protected again at the last
		// release, so pay the re-protection fault.
		pc.twinWrite = lc.curInterval
		cost = c.WriteFault
	}
	if pc.lastSelf != lc.curInterval {
		pc.lastSelf = lc.curInterval
		lc.dirty = append(lc.dirty, gp)
	}
	if cost > 0 {
		lc.h.AppProc().Advance(cost)
	}
}

// closeInterval closes the open interval: every dirtied page gets a
// write notice, the interval is logged in the run's shared log (only
// this node appends to its own entry), the interval's causal order key
// is recorded, and the vector clock advances. Called at lock release and
// barrier arrival (an RC release operation). The caller (the protocol's
// Release) performs any data movement first.
func (lc *lrcCore) closeInterval() {
	if len(lc.dirty) > 0 {
		pages := make([]int32, len(lc.dirty))
		copy(pages, lc.dirty)
		lc.log[lc.id] = append(lc.log[lc.id], IntervalRec{Interval: lc.curInterval, Pages: pages})
		lc.dirty = lc.dirty[:0]
	}
	lc.vc[lc.id] = lc.curInterval
	var sum int64
	for _, v := range lc.vc {
		sum += int64(v)
	}
	lc.orders = append(lc.orders, sum)
	lc.curInterval++
}

// orderEstimate is the causal sort key an interval would get if released
// right now: the current vector-clock sum with this node's entry replaced
// by the open interval number.
func (lc *lrcCore) orderEstimate() int64 {
	var s int64
	for q, v := range lc.vc {
		if q == lc.id {
			s += int64(lc.curInterval)
		} else {
			s += int64(v)
		}
	}
	return s
}

// noticesSince returns the interval records of process q with interval
// numbers in (from, to]: a window of the shared log, found by binary
// search. Its capacity is clipped, so the writer's later appends never
// show through it, and records are immutable once logged, so it is
// shared with every receiver rather than copied.
func (lc *lrcCore) noticesSince(q int, from, to int32) []IntervalRec {
	log := lc.log[q]
	i := logIndex(log, from)
	j := i + logIndex(log[i:], to)
	return log[i:j:j]
}

// logIndex returns the position of the first record of log (ascending
// interval numbers) with an interval later than after.
func logIndex(log []IntervalRec, after int32) int {
	return sort.Search(len(log), func(k int) bool { return log[k].Interval > after })
}

// BatchSince appends to dst the notice batches for a receiver whose
// vector clock is rvc, based on everything this node knows.
func (lc *lrcCore) BatchSince(dst []NoticeBatch, rvc []int32) []NoticeBatch {
	n := 0
	for q, v := range lc.vc {
		if v > rvc[q] {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	for q, v := range lc.vc {
		if v > rvc[q] {
			dst = append(dst, NoticeBatch{Proc: q, Intervals: lc.noticesSince(q, rvc[q], v)})
		}
	}
	return dst
}

// OwnBatch collects this node's own released intervals later than since.
func (lc *lrcCore) OwnBatch(since int32) NoticeBatch {
	return NoticeBatch{Proc: lc.id, Intervals: lc.noticesSince(lc.id, since, lc.vc[lc.id])}
}

// ApplyBatches incorporates received notices: register page
// invalidations and advance the vector clock. The records themselves
// stay in the shared log, where their writer put them. Batches carry
// the contiguous interval range (receiver.vc, sender.vc] per process
// (see the invariant comment in tmk's barrier.go), so what a node has
// incorporated of q is always a prefix of q's log. That is checked, not
// assumed: every new interval must be the log's next record after what
// this node already holds, or the receiver would skip write notices.
func (lc *lrcCore) ApplyBatches(bs []NoticeBatch) {
	for _, b := range bs {
		q := b.Proc
		if q == lc.id {
			continue // never accept notices about our own intervals
		}
		log := lc.log[q]
		next := logIndex(log, lc.vc[q])
		for _, iv := range b.Intervals {
			if iv.Interval <= lc.vc[q] {
				continue // already known
			}
			if next >= len(log) || log[next].Interval != iv.Interval {
				want := "nothing"
				if next < len(log) {
					want = fmt.Sprintf("interval %d", log[next].Interval)
				}
				panic(fmt.Sprintf("proto: node %d: notices of writer %d skip intervals: holds through %d, "+
					"batch brings interval %d, writer's log has %s next", lc.id, q, lc.vc[q], iv.Interval, want))
			}
			next++
			for _, pg := range iv.Pages {
				if notice, _ := lc.vectors(pg); iv.Interval > notice[q] {
					notice[q] = iv.Interval
				}
			}
			lc.vc[q] = iv.Interval
		}
	}
}

// VC returns the node's live vector clock. Callers must not mutate it.
func (lc *lrcCore) VC() []int32 { return lc.vc }

// Applied returns what this node's copy of gp holds: a copy of the
// page's applied vector with the node's own entry at its last released
// interval (its own released writes are always in its copy).
func (lc *lrcCore) Applied(gp int32) []int32 { return lc.appendApplied(nil, gp) }

// appendApplied appends Applied(gp) to dst.
func (lc *lrcCore) appendApplied(dst []int32, gp int32) []int32 {
	_, applied := lc.vectors(gp)
	dst = append(dst, applied...)
	dst[len(dst)-lc.nprocs+lc.id] = lc.vc[lc.id]
	return dst
}

// MarkApplied raises gp's applied vector to applied, the vector of the
// copy just installed over the page. The node's own entry never moves:
// its notices are never pending here.
func (lc *lrcCore) MarkApplied(gp int32, applied []int32) {
	_, have := lc.vectors(gp)
	for q, upto := range applied {
		if q != lc.id && upto > have[q] {
			have[q] = upto
		}
	}
}

// Invalid reports whether gp has unapplied remote write notices.
func (lc *lrcCore) Invalid(gp int32) bool {
	notice, applied := lc.vectors(gp)
	for q := range notice {
		if notice[q] > applied[q] {
			return true
		}
	}
	return false
}

// Counters returns the node's protocol event counts.
func (lc *lrcCore) Counters() *Counters { return &lc.ctr }
