package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/metrics"
)

// Coordinator-side metric family names. Per-worker families carry a
// worker="<addr>" label.
const (
	mRangesTotal    = "dsm_fabric_ranges_total"
	mRangesDone     = "dsm_fabric_ranges_done"
	mRecordsMerged  = "dsm_fabric_records_merged_total"
	mRecordsFailed  = "dsm_fabric_record_failures_total"
	mLocalRecords   = "dsm_fabric_local_records_total"
	mWorkersLive    = "dsm_fabric_workers_live"
	mLeasesGranted  = "dsm_fabric_leases_granted_total"
	mLeaseExpiries  = "dsm_fabric_lease_expiries_total"
	mLeaseFailures  = "dsm_fabric_lease_failures_total"
	mWorkerMerged   = "dsm_fabric_worker_merged_records_total"
	mWorkerInflight = "dsm_fabric_worker_leases_inflight"
)

// registerMetrics exposes the coordinator's fleet state on c.Metrics
// as func-backed families over the live atomics. Called once per
// coordinator, after the handshake fixed the worker set.
func (c *Coordinator) registerMetrics() {
	r := c.Metrics
	if r == nil {
		return
	}
	c.metricsOnce.Do(func() {
		r.GaugeFunc(mRangesTotal, "Leased ranges in the current sweep.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.rangesTotal)
		})
		r.GaugeFunc(mRangesDone, "Leased ranges completed.", func() float64 {
			c.mu.Lock()
			tbl := c.tbl
			c.mu.Unlock()
			if tbl == nil {
				return 0
			}
			return float64(tbl.doneRanges())
		})
		r.CounterFunc(mRecordsMerged, "Records merged into the ordered output stream.",
			func() float64 { return float64(c.recordsDone.Load()) })
		r.CounterFunc(mRecordsFailed, "Merged records that carried a run failure.",
			func() float64 { return float64(c.recordsFailed.Load()) })
		r.CounterFunc(mLocalRecords, "Records executed by the coordinator's local fallback engine.",
			func() float64 { return float64(c.localRecords.Load()) })
		r.GaugeFunc(mWorkersLive, "Registered workers not yet retired.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, ws := range c.workers {
				if !ws.retired.Load() {
					n++
				}
			}
			return float64(n)
		})
		c.mu.Lock()
		workers := c.workers
		c.mu.Unlock()
		for _, ws := range workers {
			ws := ws
			l := metrics.L("worker", ws.addr)
			r.CounterFunc(mLeasesGranted, "Leases granted, by worker.",
				func() float64 { return float64(ws.leases.Load()) }, l)
			r.CounterFunc(mLeaseExpiries, "Leases lost to the deadline, by worker.",
				func() float64 { return float64(ws.expiries.Load()) }, l)
			r.CounterFunc(mLeaseFailures, "Leases lost to errors or malformed streams, by worker.",
				func() float64 { return float64(ws.failures.Load()) }, l)
			r.CounterFunc(mWorkerMerged, "Validated records received, by worker.",
				func() float64 { return float64(ws.records.Load()) }, l)
			r.GaugeFunc(mWorkerInflight, "Leases outstanding right now, by worker.",
				func() float64 { return float64(ws.inflight.Load()) }, l)
		}
	})
}

// WorkerSnapshot is one worker's row in the fleet /progress view.
type WorkerSnapshot struct {
	Addr     string `json:"addr"`
	Leases   int64  `json:"leases"`
	Records  int64  `json:"records"`
	Expiries int64  `json:"lease_expiries,omitempty"`
	Failures int64  `json:"lease_failures,omitempty"`
	Inflight int64  `json:"inflight"`
	Retired  bool   `json:"retired,omitempty"`
}

// FleetSnapshot is the JSON shape the coordinator serves at /progress:
// aggregated merge progress with a fleet ETA plus per-worker rows.
type FleetSnapshot struct {
	RecordsDone   int64 `json:"records_done"`
	RecordsTotal  int64 `json:"records_total"`
	RecordsFailed int64 `json:"records_failed,omitempty"`
	RangesDone    int   `json:"ranges_done"`
	RangesTotal   int   `json:"ranges_total"`
	// DuplicateRecords is always 0: a range has one holder, so no run is
	// executed twice. It stays while the host benchmark reads it.
	DuplicateRecords int64            `json:"duplicate_records,omitempty"`
	LocalRecords     int64            `json:"local_records,omitempty"`
	ElapsedSeconds   float64          `json:"elapsed_seconds"`
	EtaSeconds       float64          `json:"eta_seconds,omitempty"`
	Workers          []WorkerSnapshot `json:"workers"`
}

// Snapshot returns the fleet's current progress state.
func (c *Coordinator) Snapshot() FleetSnapshot {
	c.mu.Lock()
	snap := FleetSnapshot{
		RecordsTotal: c.recordsTotal,
		RangesTotal:  c.rangesTotal,
	}
	if !c.start.IsZero() {
		snap.ElapsedSeconds = time.Since(c.start).Seconds()
	}
	tbl := c.tbl
	workers := c.workers
	c.mu.Unlock()
	if tbl != nil {
		snap.RangesDone = tbl.doneRanges()
	}
	snap.RecordsDone = c.recordsDone.Load()
	snap.RecordsFailed = c.recordsFailed.Load()
	snap.LocalRecords = c.localRecords.Load()
	if snap.RecordsDone > 0 && snap.RecordsDone < snap.RecordsTotal {
		snap.EtaSeconds = snap.ElapsedSeconds / float64(snap.RecordsDone) * float64(snap.RecordsTotal-snap.RecordsDone)
	}
	for _, ws := range workers {
		snap.Workers = append(snap.Workers, WorkerSnapshot{
			Addr:     ws.addr,
			Leases:   ws.leases.Load(),
			Records:  ws.records.Load(),
			Expiries: ws.expiries.Load(),
			Failures: ws.failures.Load(),
			Inflight: ws.inflight.Load(),
			Retired:  ws.retired.Load(),
		})
	}
	return snap
}

// ServeHTTP serves the fleet snapshot as JSON (the coordinator's
// /progress endpoint under dsmrun -metrics-addr).
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Snapshot()) //nolint:errcheck // client went away
}

// progressLine emits a throttled fleet progress line to c.Out.
func (c *Coordinator) progressLine() {
	if c.Out == nil {
		return
	}
	c.mu.Lock()
	now := time.Now()
	done := c.recordsDone.Load()
	final := done == c.recordsTotal
	if !final && now.Sub(c.lastLine) < time.Second {
		c.mu.Unlock()
		return
	}
	c.lastLine = now
	total := c.recordsTotal
	rangesTotal := c.rangesTotal
	var rangesDone int
	if c.tbl != nil {
		// doneRanges takes the table lock, never the coordinator's.
		rangesDone = c.tbl.doneRanges()
	}
	live := 0
	for _, ws := range c.workers {
		if !ws.retired.Load() {
			live++
		}
	}
	elapsed := now.Sub(c.start)
	c.mu.Unlock()

	line := fmt.Sprintf("fabric: %d/%d records, %d/%d ranges, %d workers", done, total, rangesDone, rangesTotal, live)
	if n := c.recordsFailed.Load(); n > 0 {
		line += fmt.Sprintf(", %d failed", n)
	}
	if n := c.localRecords.Load(); n > 0 {
		line += fmt.Sprintf(", %d local", n)
	}
	line += fmt.Sprintf(", elapsed %s", elapsed.Round(100*time.Millisecond))
	if done > 0 && done < total {
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		line += fmt.Sprintf(", eta %s", eta.Round(100*time.Millisecond))
	}
	fmt.Fprintln(c.Out, line)
}
