package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
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

// TestFailedSweepExitsOne: a sweep with a failing run writes that run's
// error record among the others and exits with status 1, not with Go's
// panic status 2. A run that panics is such a failure (exp's
// Engine.execute recovers it; fabric's TestPanicIsOneErrorRecord), so
// this is also the exit status of a panicking run. The test re-executes
// its own binary as dsmrun.
func TestFailedSweepExitsOne(t *testing.T) {
	if os.Getenv("DSMRUN_TEST_MAIN") == "1" {
		os.Args = []string{"dsmrun", "-workers", "1", "-scale", "small", "-sweep", "app=NBF version=seq,xhpf-gen procs=1"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFailedSweepExitsOne$")
	cmd.Env = append(os.Environ(), "DSMRUN_TEST_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("dsmrun exited with %v, want status 1", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 || strings.Contains(lines[0], `"error"`) || !strings.Contains(lines[1], `"error":"NBF/xhpf-gen: `) {
		t.Errorf("stdout %q, want the seq record, then xhpf-gen's error record", stdout.String())
	}
}
