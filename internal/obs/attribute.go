package obs

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// category is the time-attribution bucket of a wait.
type category uint8

const (
	// catFault is page-repair stall: waiting for diff or page traffic.
	catFault category = iota
	// catBarrier is barrier wait (including the fork-join interface's
	// control messages, which travel under the barrier category).
	catBarrier
	// catLock is lock-acquisition wait.
	catLock
	// catData is explicit message-passing data wait (PVMe/XHPF sends,
	// broadcasts, exchanges).
	catData
	// catOther is everything else (untracked shutdown/boundary traffic).
	catOther
)

// categoryOf maps a traffic category to its attribution bucket.
func categoryOf(k stats.Kind) category {
	switch k {
	case stats.KindDiffReq, stats.KindDiff, stats.KindPageReq, stats.KindPage:
		return catFault
	case stats.KindBarrier, stats.KindControl:
		return catBarrier
	case stats.KindLock:
		return catLock
	case stats.KindData:
		return catData
	}
	return catOther
}

// NodeBreakdown is one node's virtual-time attribution over its timed
// window: the window's length decomposed into categories that sum to
// it exactly (Attribute asserts this by construction — Compute is the
// remainder and must be non-negative).
//
// Compute is everything the node's application process did while not
// blocked: application work plus protocol CPU costs charged locally
// (twinning, diff creation/application, pack/unpack). The wait
// categories come from the simulator's Recv clock jumps, categorized
// by the received message's traffic kind; Queue is the part of those
// waits caused by contention queueing (busy NIC links or backplane).
type NodeBreakdown struct {
	Node    int   `json:"node"`
	Total   int64 `json:"total_ns"`
	Compute int64 `json:"compute_ns"`
	Fault   int64 `json:"fault_ns"`
	Barrier int64 `json:"barrier_ns"`
	Lock    int64 `json:"lock_ns"`
	Data    int64 `json:"data_ns"`
	Queue   int64 `json:"queue_ns"`
	Other   int64 `json:"other_ns"`
}

// WaitSum returns the non-compute components' sum.
func (b NodeBreakdown) WaitSum() int64 {
	return b.Fault + b.Barrier + b.Lock + b.Data + b.Queue + b.Other
}

// Sum aggregates breakdowns (Node = -1 in the result).
func Sum(bds []NodeBreakdown) NodeBreakdown {
	out := NodeBreakdown{Node: -1}
	for _, b := range bds {
		out.Total += b.Total
		out.Compute += b.Compute
		out.Fault += b.Fault
		out.Barrier += b.Barrier
		out.Lock += b.Lock
		out.Data += b.Data
		out.Queue += b.Queue
		out.Other += b.Other
	}
	return out
}

// Attribute folds the trace's wait events into per-node breakdowns
// over the given timed windows: windows[i] is node i's [start, end]
// clocks (application process i — request-server processes are
// measurement infrastructure and are excluded). Waits are clipped to
// the window; the remainder of the window is compute.
//
// The decomposition is exact by construction and Attribute asserts its
// preconditions: windows must be well-formed, and each process's wait
// events must be monotone and non-overlapping (they are — a wait spans
// a Recv clock jump, and clocks never go backwards). A violated
// assertion panics: it means an emitter, not the caller, is broken.
//
// A nil trace attributes every window entirely to compute.
func (t *Trace) Attribute(windows [][2]int64) []NodeBreakdown {
	a := newAttribution(windows)
	if t != nil {
		for _, c := range t.chunks {
			for i := 0; i < len(c); i += int(c[i]) {
				if Type(c[i+1]) == EvWait { // any other record is stepped over by its length
					a.wait(decode(c, i))
				}
			}
		}
	}
	return a.result()
}

// attribution is Attribute's fold: the breakdowns so far and, per
// node, where its last wait ended.
type attribution struct {
	windows [][2]int64
	out     []NodeBreakdown
	lastEnd []int64
}

func newAttribution(windows [][2]int64) attribution {
	a := attribution{windows: windows,
		out: make([]NodeBreakdown, len(windows)), lastEnd: make([]int64, len(windows))}
	for i, w := range windows {
		if w[1] < w[0] {
			panic(fmt.Sprintf("obs: window %d ends (%d) before it starts (%d)", i, w[1], w[0]))
		}
		a.out[i] = NodeBreakdown{Node: i, Total: w[1] - w[0]}
		a.lastEnd[i] = math.MinInt64
	}
	return a
}

// wait charges wait event e, clipped to its node's window; a wait of a
// process with no window counts nowhere.
func (a *attribution) wait(e event) {
	if int(e.Proc) >= len(a.windows) || e.Proc < 0 {
		return
	}
	i := int(e.Proc)
	if e.Dur < 0 {
		panic(fmt.Sprintf("obs: negative wait duration %d on proc %d", e.Dur, i))
	}
	if e.T < a.lastEnd[i] {
		panic(fmt.Sprintf("obs: wait events overlap on proc %d (start %d < previous end %d)", i, e.T, a.lastEnd[i]))
	}
	a.lastEnd[i] = e.T + e.Dur
	lo, hi := e.T, e.T+e.Dur
	if lo < a.windows[i][0] {
		lo = a.windows[i][0]
	}
	if hi > a.windows[i][1] {
		hi = a.windows[i][1]
	}
	if hi <= lo {
		return
	}
	d := hi - lo
	q := e.Arg // contention-queueing part of the wait
	if q < 0 {
		q = 0
	}
	if q > d {
		q = d
	}
	b := &a.out[i]
	b.Queue += q
	rest := d - q
	switch categoryOf(e.Kind) {
	case catFault:
		b.Fault += rest
	case catBarrier:
		b.Barrier += rest
	case catLock:
		b.Lock += rest
	case catData:
		b.Data += rest
	default:
		b.Other += rest
	}
}

// result closes the fold: each window's remainder is compute.
func (a *attribution) result() []NodeBreakdown {
	for i := range a.out {
		b := &a.out[i]
		b.Compute = b.Total - b.WaitSum()
		if b.Compute < 0 {
			panic(fmt.Sprintf("obs: node %d waits (%d ns) exceed its window (%d ns)", i, b.WaitSum(), b.Total))
		}
	}
	return a.out
}
