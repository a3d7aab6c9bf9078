package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/store"
)

// stalledWorker starts a worker that sleeps d per streamed record (the
// deliberately-slow-worker hook for adaptive sizing tests).
func stalledWorker(t *testing.T, d time.Duration) (*Worker, string) {
	t.Helper()
	w := NewWorker(nil)
	w.Workers = 2
	w.StallPerRecord = d
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv.URL
}

// storeWorker starts a worker backed by a persistent store in dir.
func storeWorker(t *testing.T, dir string) (*Worker, string) {
	t.Helper()
	st, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	w := NewWorker(nil)
	w.Workers = 2
	w.Store = st
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv.URL
}

// TestAdaptiveRangeSizingSlowWorker pairs a fast worker with a
// deliberately slow one (4x the per-record stall). Once measured, the
// slow worker's grants must shrink below the configured range size —
// splitting pending ranges, which grows the range count — while the
// merged bytes stay identical to a local sweep.
func TestAdaptiveRangeSizingSlowWorker(t *testing.T) {
	// 64 distinct runs: a fleet leases runs, so repeats would not do.
	axes := exp.Axes{
		Apps:        []string{"Jacobi", "MGS"},
		Versions:    []core.Version{core.Tmk},
		Procs:       []int{1, 2, 3, 4, 5, 6, 7, 8},
		Protocols:   []proto.Name{proto.HomelessLRC, proto.HomeLRC},
		Contentions: []int{0, 2},
	}
	specs := axes.Specs(exp.Spec{Scale: core.SmallScale})
	if runs := exp.UniqueRuns(specs, false); runs != 64 {
		t.Fatalf("grid is %d runs, want 64", runs)
	}
	_, fastURL := stalledWorker(t, 20*time.Millisecond)
	_, slowURL := stalledWorker(t, 80*time.Millisecond)
	c := runFleet(t, &Coordinator{
		Workers:   []string{fastURL, slowURL},
		RangeSize: 4,
	}, specs, false)

	var slow *workerState
	for _, ws := range c.workers {
		if ws.addr == NormalizeAddr(slowURL) {
			slow = ws
		}
	}
	if slow == nil {
		t.Fatal("slow worker missing from the registered fleet")
	}
	if len(slow.grantSizes) < 2 {
		t.Fatalf("slow worker served only %d leases; sizing never had a measurement to act on", len(slow.grantSizes))
	}
	if slow.grantSizes[0] != 4 {
		t.Errorf("first (unmeasured) grant was %d specs, want the configured 4", slow.grantSizes[0])
	}
	shrunk := false
	for _, n := range slow.grantSizes[1:] {
		if n < 4 {
			shrunk = true
		}
	}
	if !shrunk {
		t.Errorf("slow worker's grants never shrank below the base size: %v", slow.grantSizes)
	}
	if got := c.Snapshot().RangesTotal; got <= len(specs)/4 {
		t.Errorf("range count %d after adaptive grants, want splits to grow it past %d", got, len(specs)/4)
	}
}

// TestWorkerStoreWarmRerun re-runs a fleet sweep against a fresh
// worker sharing the first worker's store directory: every leased spec
// must be served from disk (zero simulations) with identical bytes.
func TestWorkerStoreWarmRerun(t *testing.T) {
	specs := testGrid(t)
	dir := t.TempDir()

	cold, coldURL := storeWorker(t, dir)
	runFleet(t, &Coordinator{Workers: []string{coldURL}, RangeSize: 3}, specs, false)
	if snap := cold.Progress.Snapshot(); snap.Executed != len(specs) || snap.DiskHits != 0 {
		t.Errorf("cold worker executed/disk = %d/%d, want %d/0", snap.Executed, snap.DiskHits, len(specs))
	}
	// Every lease ends committed: nothing is left for a later Sync.
	committed := cold.Store.Stats().Syncs
	if err := cold.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := cold.Store.Stats().Syncs; committed == 0 || got != committed {
		t.Errorf("cold worker: %d fsyncs by the end of its leases, %d after a further Sync; want equal and nonzero", committed, got)
	}

	warm, warmURL := storeWorker(t, dir)
	runFleet(t, &Coordinator{Workers: []string{warmURL}, RangeSize: 3}, specs, false)
	snap := warm.Progress.Snapshot()
	if snap.Executed != 0 {
		t.Errorf("warm worker executed %d simulations, want 0 (all leases should hit the store)", snap.Executed)
	}
	if snap.DiskHits != len(specs) {
		t.Errorf("warm worker served %d specs from the store, want %d", snap.DiskHits, len(specs))
	}
	if got := warm.Store.Stats().Syncs; got != 0 {
		t.Errorf("warm worker issued %d fsyncs serving from disk, want 0", got)
	}
}

// TestDrainFinishesInflightLease drains a worker mid-lease: the
// in-flight lease must stream to completion, the store must close
// flushed and verifiable, later leases must answer 503, and the
// coordinator must finish the sweep locally — byte-identically.
func TestDrainFinishesInflightLease(t *testing.T) {
	specs := testGrid(t)
	dir := t.TempDir()
	st, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	w := NewWorker(nil)
	w.Workers = 2
	w.Store = st
	w.StallPerRecord = 50 * time.Millisecond
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	c := &Coordinator{Workers: []string{srv.URL}, RangeSize: 4, MaxWorkerFailures: 1, Logf: t.Logf}
	var got bytes.Buffer
	var runErr error
	done := make(chan struct{})
	go func() {
		_, runErr = c.Run(&got, specs)
		close(done)
	}()

	// Wait until the first lease is executing, then drain under it.
	deadline := time.Now().Add(10 * time.Second)
	for w.Progress.Snapshot().Executed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no lease started within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	<-done
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	if want := localBytes(t, specs, false, false); !bytes.Equal(want, got.Bytes()) {
		t.Errorf("drained sweep diverged from the local reference:\nlocal:\n%s\nfabric:\n%s", want, got.Bytes())
	}
	if c.Snapshot().LocalRecords == 0 {
		t.Error("post-drain ranges did not fall back to local execution")
	}

	// A post-drain lease is refused outright.
	body, _ := json.Marshal(RunRequest{SchemaVersion: exp.SchemaVersion, Lease: "post-drain", Keys: []string{specs[0].Key()}})
	resp, err := http.Post(srv.URL+RunPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain lease answered %s, want 503", resp.Status)
	}

	// Drain closed the store; a fresh handle sees the completed lease's
	// records, all frames intact.
	st2, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		t.Fatalf("reopening drained store: %v", err)
	}
	defer st2.Close()
	rep, err := st2.Verify(nil)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.CorruptFrames != 0 || rep.BadValues != 0 {
		t.Errorf("drained store verify: %+v, want no corruption", rep)
	}
	if rep.Entries < 4 {
		t.Errorf("drained store holds %d records, want at least the completed lease's 4", rep.Entries)
	}
}
