package fabric

import (
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
)

// rangeStatus is one range's lease state. The state machine:
//
//	pending --grant--> leased --deliver--> done
//	   ^                  |
//	   +------fail--------+   (attempts exhausted => localOnly)
//
// A leased range may hold up to two concurrent attempts (the original
// plus one straggler duplicate); it returns to pending only when every
// outstanding attempt has failed. done is terminal — late duplicate
// deliveries are dropped.
type rangeStatus int

const (
	rangePending rangeStatus = iota
	rangeLeased
	rangeDone
)

// maxInflightPerRange bounds concurrent attempts on one range: the
// original lease plus one straggler duplicate.
const maxInflightPerRange = 2

// runRange is one leased unit: the half-open slice runs[lo:hi] of the
// coordinator's run list plus its lease state and, once done, its
// validated records.
type runRange struct {
	lo, hi    int
	status    rangeStatus
	inflight  int       // outstanding lease attempts
	attempts  int       // attempts granted so far (success or not)
	localOnly bool      // remote attempts exhausted; only local may run it
	started   time.Time // start of the oldest outstanding attempt
	records   []exp.Record
}

// leaseTable is the coordinator's shared scheduling state: which
// ranges are pending, leased, or done, how many live workers remain,
// and whether the merge was canceled. One mutex + condition variable
// serialize it; grants, deliveries, failures and retirements all
// broadcast so blocked workers and the in-order emitter re-evaluate.
//
// ranges stays sorted by lo and contiguous over [0, n): adaptive
// sizing may split a pending range into a granted head and a pending
// remainder, growing the slice, but never changes a leased or done
// range's bounds — so the merge can walk run positions and every
// grant's slice is stable for its whole lease.
type leaseTable struct {
	mu   sync.Mutex
	cond *sync.Cond

	ranges      []*runRange
	done        int
	liveWorkers int
	maxAttempts int
	canceled    bool
}

// newLeaseTable splits n runs into ranges of size (the last may be
// ragged) for liveWorkers registered workers.
func newLeaseTable(n, size, maxAttempts, liveWorkers int) *leaseTable {
	t := &leaseTable{liveWorkers: liveWorkers, maxAttempts: maxAttempts}
	t.cond = sync.NewCond(&t.mu)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		t.ranges = append(t.ranges, &runRange{lo: lo, hi: hi})
	}
	return t
}

// grant is one lease assignment: the granted range (its bounds are
// frozen while leased) and the attempt ordinal (1-based, for lease IDs
// and logs). Splits shift slice indices, so grants hold the pointer.
type grant struct {
	r       *runRange
	attempt int
}

// next blocks until work is available and returns the next grant, or
// ok=false when every range is done (or the table was canceled) and
// the caller should exit.
//
// Remote callers (local=false) get the first pending non-localOnly
// range; with nothing pending they duplicate the longest-running
// in-flight range that has capacity (straggler re-issue). Local
// callers (local=true) get ranges whose remote attempts are exhausted
// — or any unfinished range once no live workers remain — and never
// duplicate in-flight work.
//
// maxRuns > 0 caps the grant for remote callers (adaptive range
// sizing): a larger pending range is split at maxRuns and only the
// head granted, leaving the remainder pending for faster hands.
// Straggler duplicates are never split — the original attempt's bounds
// are already fixed.
func (t *leaseTable) next(local bool, maxRuns int) (grant, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.canceled || t.done == len(t.ranges) {
			return grant{}, false
		}
		if idx, ok := t.pickLocked(local); ok {
			r := t.ranges[idx]
			if !local && maxRuns > 0 && r.status == rangePending && r.hi-r.lo > maxRuns {
				t.splitLocked(idx, maxRuns)
				r = t.ranges[idx]
			}
			r.status = rangeLeased
			if r.inflight == 0 {
				r.started = time.Now()
			}
			r.inflight++
			r.attempts++
			return grant{r: r, attempt: r.attempts}, true
		}
		t.cond.Wait()
	}
}

// splitLocked splits the pending range at idx into [lo, lo+keep) and a
// pending remainder [lo+keep, hi), inserted right after it. The new
// pending work wakes anything blocked in next. Caller holds t.mu.
func (t *leaseTable) splitLocked(idx, keep int) {
	r := t.ranges[idx]
	rest := &runRange{lo: r.lo + keep, hi: r.hi}
	r.hi = r.lo + keep
	t.ranges = append(t.ranges, nil)
	copy(t.ranges[idx+2:], t.ranges[idx+1:])
	t.ranges[idx+1] = rest
	t.cond.Broadcast()
}

// pickLocked chooses a range for a grant. Caller holds t.mu.
func (t *leaseTable) pickLocked(local bool) (int, bool) {
	if local {
		for i, r := range t.ranges {
			if r.status == rangeDone || r.inflight > 0 {
				continue
			}
			if r.localOnly || t.liveWorkers == 0 {
				return i, true
			}
		}
		return 0, false
	}
	for i, r := range t.ranges {
		if r.status == rangePending && !r.localOnly {
			return i, true
		}
	}
	// Straggler re-issue: duplicate the oldest outstanding lease.
	best, found := 0, false
	for i, r := range t.ranges {
		if r.status != rangeLeased || r.localOnly || r.inflight >= maxInflightPerRange {
			continue
		}
		if !found || r.started.Before(t.ranges[best].started) {
			best, found = i, true
		}
	}
	return best, found
}

// deliver completes one attempt with validated records. The first
// delivery wins and returns true; late duplicates return false and are
// dropped (both copies are bit-equal anyway — the simulator is
// deterministic).
func (t *leaseTable) deliver(g grant, recs []exp.Record) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := g.r
	if r.inflight > 0 {
		r.inflight--
	}
	defer t.cond.Broadcast()
	if r.status == rangeDone {
		return false
	}
	r.status = rangeDone
	r.records = recs
	t.done++
	return true
}

// fail aborts one attempt. With no other attempt outstanding the range
// returns to pending; once its attempts reach maxAttempts it is marked
// localOnly so only the local executor will touch it again.
func (t *leaseTable) fail(g grant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := g.r
	if r.inflight > 0 {
		r.inflight--
	}
	if r.status != rangeDone {
		if r.inflight == 0 {
			r.status = rangePending
		}
		if r.attempts >= t.maxAttempts {
			r.localOnly = true
		}
	}
	t.cond.Broadcast()
}

// retireWorker removes one live worker from the table's accounting;
// at zero the local executor may claim anything unfinished.
func (t *leaseTable) retireWorker() {
	t.mu.Lock()
	t.liveWorkers--
	t.mu.Unlock()
	t.cond.Broadcast()
}

// cancel aborts the merge: blocked callers drain and exit.
func (t *leaseTable) cancel() {
	t.mu.Lock()
	t.canceled = true
	t.mu.Unlock()
	t.cond.Broadcast()
}

// waitDoneAt blocks until the range starting at run position lo is
// done, returning its records (positions lo onward); ok=false means
// the table was canceled first. Splits only touch pending ranges, so
// the range at lo may gain a smaller hi while still pending, but once
// done its bounds are final — the merge walks positions, immune to the
// slice growing under it.
func (t *leaseTable) waitDoneAt(lo int) ([]exp.Record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if r := t.rangeAtLocked(lo); r != nil && r.status == rangeDone {
			return r.records, true
		}
		if t.canceled {
			return nil, false
		}
		t.cond.Wait()
	}
}

// rangeAtLocked finds the range whose lo matches, by binary search
// (ranges stay sorted and contiguous). Caller holds t.mu.
func (t *leaseTable) rangeAtLocked(lo int) *runRange {
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].lo >= lo })
	if i < len(t.ranges) && t.ranges[i].lo == lo {
		return t.ranges[i]
	}
	return nil
}

// doneRanges returns how many ranges have completed (for progress).
func (t *leaseTable) doneRanges() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// totalRanges returns the current range count; splits grow it.
func (t *leaseTable) totalRanges() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ranges)
}
