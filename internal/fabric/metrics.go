package fabric

import "time"

// WorkerSnapshot is one worker's row in the fleet snapshot.
type WorkerSnapshot struct {
	Addr     string `json:"addr"`
	Leases   int64  `json:"leases"`
	Records  int64  `json:"records"`
	Expiries int64  `json:"lease_expiries,omitempty"`
	Failures int64  `json:"lease_failures,omitempty"`
	Inflight int64  `json:"inflight"`
	Retired  bool   `json:"retired,omitempty"`
}

// FleetSnapshot is the coordinator's telemetry map's "fabric" section:
// the current Run's merge progress with a fleet ETA, plus one row per
// worker it registered.
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
	// The merge counters are read under the lock a Run resets them
	// under, so they are never another Run's than the totals.
	c.mu.Lock()
	snap := FleetSnapshot{
		RecordsDone:   c.recordsDone.Load(),
		RecordsTotal:  c.recordsTotal,
		RecordsFailed: c.recordsFailed.Load(),
		LocalRecords:  c.localRecords.Load(),
		RangesTotal:   c.rangesTotal,
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
