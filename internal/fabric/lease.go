package fabric

import (
	"sync"

	"repro/internal/exp"
)

// rangeStatus is one range's lease state. The state machine:
//
//	pending --grant--> leased --deliver--> done
//	   ^                  |
//	   +------fail--------+   (maxAttempts remote attempts => localOnly)
//
// A range has one holder at a time: it is granted only while pending,
// so no run is ever executed by two holders at once, and done is
// terminal.
type rangeStatus int

const (
	rangePending rangeStatus = iota
	rangeLeased
	rangeDone
)

// runRange is one leased unit: the half-open slice runs[lo:hi] of the
// coordinator's run list plus its lease state and, once done, its
// validated records.
type runRange struct {
	lo, hi    int
	status    rangeStatus
	attempts  int  // attempts granted so far (success or not)
	localOnly bool // remote attempts exhausted; only local may run it
	records   []exp.Record
}

// leaseTable is the coordinator's shared scheduling state: which
// ranges are pending, leased, or done, how many live workers remain,
// and whether the merge was canceled. One mutex + condition variable
// serialize it; grants, deliveries, failures and retirements all
// broadcast so blocked workers and the in-order emitter re-evaluate.
//
// The ranges are fixed when the table is built — contiguous runs of
// size over [0, n), the last possibly ragged — so the range starting at
// run position lo is ranges[lo/size].
type leaseTable struct {
	mu   sync.Mutex
	cond *sync.Cond

	ranges      []runRange
	size        int
	done        int
	liveWorkers int
	canceled    bool
}

// newLeaseTable splits n runs into ranges of size (the last may be
// ragged) for liveWorkers registered workers.
func newLeaseTable(n, size, liveWorkers int) *leaseTable {
	t := &leaseTable{size: size, liveWorkers: liveWorkers}
	t.cond = sync.NewCond(&t.mu)
	for lo := 0; lo < n; lo += size {
		t.ranges = append(t.ranges, runRange{lo: lo, hi: min(lo+size, n)})
	}
	return t
}

// grant is one lease assignment: the granted range and the attempt
// ordinal (1-based, for lease IDs and logs), copied at grant time so
// the holder never reads the range's counters unlocked.
type grant struct {
	r       *runRange
	attempt int
}

// next blocks until work is available and returns the next grant, or
// ok=false when every range is done (or the table was canceled) and
// the caller should exit. Remote callers (local=false) get the first
// pending range with remote attempts left; the local caller gets
// pending ranges whose remote attempts are exhausted — or any pending
// range once no live workers remain.
func (t *leaseTable) next(local bool) (grant, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.canceled || t.done == len(t.ranges) {
			return grant{}, false
		}
		for i := range t.ranges {
			r := &t.ranges[i]
			if r.status != rangePending {
				continue
			}
			if local && (r.localOnly || t.liveWorkers == 0) || !local && !r.localOnly {
				r.status = rangeLeased
				r.attempts++
				return grant{r: r, attempt: r.attempts}, true
			}
		}
		t.cond.Wait()
	}
}

// deliver completes the range's attempt with validated records.
func (t *leaseTable) deliver(g grant, recs []exp.Record) {
	t.mu.Lock()
	g.r.status = rangeDone
	g.r.records = recs
	t.done++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// fail aborts the range's attempt: it returns to pending, and once its
// attempts reach maxAttempts it is marked localOnly so only the local
// executor will touch it again.
func (t *leaseTable) fail(g grant) {
	t.mu.Lock()
	g.r.status = rangePending
	if g.r.attempts >= maxAttempts {
		g.r.localOnly = true
	}
	t.mu.Unlock()
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
// the table was canceled first.
func (t *leaseTable) waitDoneAt(lo int) ([]exp.Record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.ranges[lo/t.size]
	for r.status != rangeDone {
		if t.canceled {
			return nil, false
		}
		t.cond.Wait()
	}
	return r.records, true
}

// doneRanges returns how many ranges have completed (for progress).
func (t *leaseTable) doneRanges() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}
