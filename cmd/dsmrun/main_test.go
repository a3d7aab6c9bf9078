package main

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
)

// TestProgressLines pins the -progress texts that CI and the docs
// parse: a local sweep's from its engine's counters, with the ETA from
// executed runs only, and a fleet's from the coordinator's snapshot.
func TestProgressLines(t *testing.T) {
	hs := exp.HostStats{RunsPlanned: 5, RunsResolved: 3, RunsCompleted: 2, RunsFailed: 1, StoreHits: 1}
	if got, want := sweepLine(hs, 2*time.Second), "sweep: 3/5 runs, 1 failed, hits 0 mem/1 disk, elapsed 2s, eta 2s"; got != want {
		t.Errorf("sweep line %q, want %q", got, want)
	}
	hs.RunsResolved, hs.RunsFailed = 5, 0
	if got, want := sweepLine(hs, 2500*time.Millisecond), "sweep: 5/5 runs, hits 0 mem/1 disk, elapsed 2.5s"; got != want {
		t.Errorf("final sweep line %q, want %q", got, want)
	}

	snap := fabric.FleetSnapshot{
		RecordsDone: 6, RecordsTotal: 8, RecordsFailed: 1, LocalRecords: 2,
		RangesDone: 3, RangesTotal: 4,
		ElapsedSeconds: 1.24, EtaSeconds: 0.41,
		Workers: []fabric.WorkerSnapshot{{Addr: "a"}, {Addr: "b", Retired: true}},
	}
	if got, want := fleetLine(snap), "fabric: 6/8 records, 3/4 ranges, 1 workers, 1 failed, 2 local, elapsed 1.2s, eta 400ms"; got != want {
		t.Errorf("fleet line %q, want %q", got, want)
	}
}
