package fabric

import (
	"bytes"
	"encoding/json"
	"expvar"
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
// deliberately-slow-worker hook).
func stalledWorker(t *testing.T, d time.Duration) (*Worker, string) {
	t.Helper()
	w := NewWorker(nil)
	w.Workers = 2
	w.StallPerRecord = d
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv.URL
}

// storeWorker starts a worker backed by a persistent store in dir,
// reporting on a telemetry map of its own.
func storeWorker(t *testing.T, dir string) (*Worker, string) {
	t.Helper()
	st, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	w := NewWorker(new(expvar.Map))
	w.Workers = 2
	w.Store = st
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv.URL
}

// TestSlowWorkerPullsFewerRanges pairs a fast worker with a
// deliberately slow one (4x the per-record stall). Fixed ranges pulled
// by whoever is free balance the fleet on their own: each range is
// leased once, every run executes once, and the slow worker ends with
// fewer records than the fast one — while the merged bytes stay
// identical to a local sweep.
func TestSlowWorkerPullsFewerRanges(t *testing.T) {
	// 64 distinct runs: a fleet leases runs, so repeats would not do.
	axes := exp.Axes{
		Apps:        []string{"Jacobi", "MGS"},
		Versions:    []core.Version{core.Tmk},
		Procs:       []int{1, 2, 3, 4, 5, 6, 7, 8},
		Protocols:   []proto.Name{proto.HomelessLRC, proto.HomeLRC},
		Contentions: []int{0, 2},
	}
	specs := axes.Specs(exp.Spec{Scale: core.SmallScale})
	if runs := exp.PlanRuns(specs, false).Len(); runs != 64 {
		t.Fatalf("grid is %d runs, want 64", runs)
	}
	_, fastURL := stalledWorker(t, 20*time.Millisecond)
	_, slowURL := stalledWorker(t, 80*time.Millisecond)
	c := runFleet(t, &Coordinator{
		Workers:   []string{fastURL, slowURL},
		RangeSize: 4,
	}, specs, false)

	snap := c.Snapshot()
	rows := map[string]WorkerSnapshot{}
	var leases int64
	for _, ws := range snap.Workers {
		rows[ws.Addr] = ws
		leases += ws.Leases
	}
	if snap.RangesTotal != 16 || leases != 16 {
		t.Errorf("%d leases for %d ranges, want 16 of each", leases, snap.RangesTotal)
	}
	fast, slow := rows[normalizeAddr(fastURL)], rows[normalizeAddr(slowURL)]
	t.Logf("fast worker: %d records in %d leases; slow worker: %d in %d", fast.Records, fast.Leases, slow.Records, slow.Leases)
	if slow.Records >= fast.Records {
		t.Errorf("slow worker ran %d records, fast worker %d; want the slow one fewer", slow.Records, fast.Records)
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
	if hs := engineSection(t, cold.Metrics); hs.RunsStarted != int64(len(specs)) || hs.StoreHits != 0 || hs.RunsResolved != hs.RunsPlanned {
		t.Errorf("cold worker engine section %+v, want %d runs started, no store hits, every planned run resolved", hs, len(specs))
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
	hs := engineSection(t, warm.Metrics)
	if hs.RunsStarted != 0 {
		t.Errorf("warm worker executed %d simulations, want 0 (all leases should hit the store)", hs.RunsStarted)
	}
	if hs.StoreHits != int64(len(specs)) || hs.RunsPlanned != int64(len(specs)) || hs.RunsResolved != hs.RunsPlanned {
		t.Errorf("warm worker served %d specs from the store and resolved %d of %d planned runs, want %d of each",
			hs.StoreHits, hs.RunsResolved, hs.RunsPlanned, len(specs))
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

	c := &Coordinator{Workers: []string{srv.URL}, RangeSize: 4, Logf: t.Logf}
	var got bytes.Buffer
	var runErr error
	done := make(chan struct{})
	go func() {
		_, runErr = c.Run(&got, specs)
		close(done)
	}()

	// Wait until the first lease is streaming, then drain under it.
	deadline := time.Now().Add(10 * time.Second)
	for w.Counters().LeasesActive == 0 {
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
	body, _ := json.Marshal(runRequest{SchemaVersion: exp.SchemaVersion, Lease: "post-drain", Keys: []string{specs[0].Key()}})
	resp, err := http.Post(srv.URL+runPath, "application/json", bytes.NewReader(body))
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
