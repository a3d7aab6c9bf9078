package sim

import "sync/atomic"

// HostStats are host-side execution counters for the simulator itself:
// how much real scheduling and delivery work a run performed, as
// opposed to the virtual-time costs it modeled. They exist for the
// telemetry surface (internal/metrics) and never influence virtual
// time, message contents or ordering — a run with nobody reading them
// is bit-identical to one scraped continuously.
type HostStats struct {
	// Dispatches counts scheduler hand-offs: each time the Run loop
	// resumed a process coroutine.
	Dispatches int64 `json:"dispatches"`
	// Delivered counts messages consumed by Recv.
	Delivered int64 `json:"delivered"`
	// PeakQueue is the high-water mark of messages sent but not yet
	// received, summed over all inboxes of the cluster.
	PeakQueue int64 `json:"peak_queue"`
}

// Process-wide totals, folded in once per completed Cluster.Run. The
// per-cluster counters themselves are plain ints — exactly one process
// executes at a time (processes are coroutines resumed by the one Run
// loop, which is also what makes c.seq safe) — so the hot path pays no
// atomic traffic; only the once-per-run fold does.
var (
	hostDispatches atomic.Int64
	hostDelivered  atomic.Int64
	hostPeakQueue  atomic.Int64
)

// HostTotals returns the process-wide counters accumulated by every
// Cluster.Run completed so far (including runs that returned an error
// or panicked). PeakQueue is the maximum over runs, not a sum.
func HostTotals() HostStats {
	return HostStats{
		Dispatches: hostDispatches.Load(),
		Delivered:  hostDelivered.Load(),
		PeakQueue:  hostPeakQueue.Load(),
	}
}

// HostStats returns this cluster's host-side counters. Stable only
// after Run returns.
func (c *Cluster) HostStats() HostStats { return c.host }

// foldHost publishes the cluster's counters into the process totals.
func (c *Cluster) foldHost() {
	hostDispatches.Add(c.host.Dispatches)
	hostDelivered.Add(c.host.Delivered)
	for {
		cur := hostPeakQueue.Load()
		if c.host.PeakQueue <= cur || hostPeakQueue.CompareAndSwap(cur, c.host.PeakQueue) {
			return
		}
	}
}
