package fabric

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
)

// faultServer wraps a healthy worker with middleware that can corrupt
// the /run path; /healthz always passes so the worker registers.
func faultServer(t *testing.T, mw func(http.Handler) http.Handler) string {
	t.Helper()
	w := NewWorker(nil)
	w.Workers = 2
	srv := httptest.NewServer(mw(w.Handler()))
	t.Cleanup(srv.Close)
	return srv.URL
}

// runFleet drives one coordinator run and asserts byte identity
// against the local reference, and that a fleet that registered
// executed each distinct run once, whatever failed on the way. It
// returns the coordinator for telemetry assertions.
func runFleet(t *testing.T, c *Coordinator, specs []exp.Spec, wantErr bool) *Coordinator {
	t.Helper()
	want := localBytes(t, specs, c.Speedup, c.Observe)
	if c.Logf == nil {
		c.Logf = t.Logf
	}
	var got bytes.Buffer
	stats, err := c.Run(&got, specs)
	if (err != nil) != wantErr {
		t.Fatalf("Run error = %v, wantErr %v", err, wantErr)
	}
	if stats.Records != len(specs) {
		t.Errorf("stats = %+v, want %d records", stats, len(specs))
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("merged output differs from local sweep under fault:\nlocal:\n%s\nfabric:\n%s", want, got.Bytes())
	}
	if snap := c.Snapshot(); len(snap.Workers) > 0 {
		if n, runs := executedRuns(snap), exp.PlanRuns(specs, c.Speedup).Len(); n != int64(runs) {
			t.Errorf("the fleet executed %d runs, want %d", n, runs)
		}
	}
	return c
}

// TestWorkerKilledMidRange injects a crash after two streamed records:
// the dying worker aborts its connection mid-stream and 503s forever
// after, so the coordinator must detect the truncated range, fail the
// lease, and finish through the surviving worker — byte-identically,
// relabelled and joined, on the label-heavy list.
func TestWorkerKilledMidRange(t *testing.T) {
	specs := labelGrid(t)
	dying := NewWorker(nil)
	dying.Workers = 2
	dying.KillAfterRecords = 2
	dyingSrv := httptest.NewServer(dying.Handler())
	defer dyingSrv.Close()

	c := runFleet(t, &Coordinator{
		Workers:   []string{dyingSrv.URL, startWorkers(t, 1)[0]},
		RangeSize: 3,
		Speedup:   true,
	}, specs, false)

	snap := c.Snapshot()
	var dyingRow *WorkerSnapshot
	for i := range snap.Workers {
		if snap.Workers[i].Addr == dyingSrv.URL {
			dyingRow = &snap.Workers[i]
		}
	}
	if dyingRow == nil {
		t.Fatal("dying worker missing from fleet snapshot")
	}
	if dyingRow.Failures+dyingRow.Expiries == 0 {
		t.Errorf("dying worker shows no failed leases: %+v", *dyingRow)
	}
}

// TestAllWorkersDieFallsBackLocal kills the entire fleet mid-sweep;
// the coordinator retires both workers and the local executor finishes
// every remaining range unjoined, and the merge relabels and joins its
// runs like the workers' — still byte-identical on the label-heavy list.
func TestAllWorkersDieFallsBackLocal(t *testing.T) {
	specs := labelGrid(t)
	var addrs []string
	for i := 0; i < 2; i++ {
		w := NewWorker(nil)
		w.Workers = 2
		w.KillAfterRecords = 1
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
	}
	c := runFleet(t, &Coordinator{
		Workers:   addrs,
		RangeSize: 2,
		Speedup:   true,
	}, specs, false)
	if n := c.Snapshot().LocalRecords; n == 0 {
		t.Error("local fallback executed no records after fleet death")
	}
	for _, ws := range c.Snapshot().Workers {
		if !ws.Retired {
			t.Errorf("dead worker %s not retired", ws.Addr)
		}
	}
}

// TestLeaseExpiryReassigned hangs one worker's /run forever. Its lease
// must expire at LeaseTimeout and the range reassign to the healthy
// worker; identity holds on the label-heavy list, joined, and the hang
// shows up as a lease expiry.
func TestLeaseExpiryReassigned(t *testing.T) {
	specs := labelGrid(t)
	hang := make(chan struct{})
	defer close(hang)
	hanging := faultServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == runPath {
				<-hang // never answers within the lease
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	c := runFleet(t, &Coordinator{
		Workers:      []string{hanging, startWorkers(t, 1)[0]},
		RangeSize:    3,
		LeaseTimeout: 200 * time.Millisecond,
		Speedup:      true,
	}, specs, false)

	var expiries int64
	for _, ws := range c.Snapshot().Workers {
		expiries += ws.Expiries
	}
	if expiries == 0 {
		t.Error("hung worker produced no lease expiries")
	}
}

// TestIdleWorkerDoesNotDuplicate: a range has one holder. With one
// range covering the whole grid and two workers, the worker that did
// not get it stays idle while the holder's first /run is held back, and
// no run is executed twice.
func TestIdleWorkerDoesNotDuplicate(t *testing.T) {
	specs := testGrid(t)
	// Delay the first /run long enough that an idle worker would have
	// time to lease the in-flight range if anything let it.
	var calls atomic.Int64
	slowOnce := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == runPath && calls.Add(1) == 1 {
				time.Sleep(300 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	}
	c := runFleet(t, &Coordinator{
		Workers:   []string{faultServer(t, slowOnce), faultServer(t, slowOnce)},
		RangeSize: len(specs), // a single range
	}, specs, false)
	snap := c.Snapshot()
	if snap.DuplicateRecords != 0 {
		t.Errorf("%d duplicate records, want 0", snap.DuplicateRecords)
	}
	var leases []int64
	for _, ws := range snap.Workers {
		leases = append(leases, ws.Leases)
	}
	if len(leases) != 2 || leases[0]+leases[1] != 1 {
		t.Errorf("leases by worker %v, want one lease in all and the idle worker at 0", leases)
	}
}

// TestGarbageStreamFailsLease serves JSON garbage on the first lease
// and proxies honestly afterwards: the malformed stream must fail the
// lease (never reach the merge) and the retry restores identity.
func TestGarbageStreamFailsLease(t *testing.T) {
	specs := testGrid(t)
	var calls atomic.Int64
	garbageFirst := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == runPath && calls.Add(1) == 1 {
				io.WriteString(w, "{\"app\":42,\"nonsense\"\nnot json at all\n")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	c := runFleet(t, &Coordinator{
		Workers:   []string{faultServer(t, garbageFirst)},
		RangeSize: 3,
	}, specs, false)
	var failures int64
	for _, ws := range c.Snapshot().Workers {
		failures += ws.Failures
	}
	if failures == 0 {
		t.Error("garbage stream produced no lease failures")
	}
}

// TestTruncatedStreamFailsLease cuts a valid wire stream off after one
// record (with a clean connection close, not an abort): the
// short-count check must fail the lease and the reassignment restores
// identity.
func TestTruncatedStreamFailsLease(t *testing.T) {
	specs := testGrid(t)
	var calls atomic.Int64
	truncateFirst := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == runPath && calls.Add(1) == 1 {
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, r)
				lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
				w.Write(lines[0]) // first record only, then EOF
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	c := runFleet(t, &Coordinator{
		Workers:   []string{faultServer(t, truncateFirst)},
		RangeSize: 3,
	}, specs, false)
	var failures int64
	for _, ws := range c.Snapshot().Workers {
		failures += ws.Failures
	}
	if failures == 0 {
		t.Error("truncated stream produced no lease failures")
	}
}

// TestMisorderedStreamFailsLease swaps the first two records of an
// otherwise-valid stream: the lease-order check must reject it — spec
// order is the merge invariant, not something the coordinator re-sorts.
func TestMisorderedStreamFailsLease(t *testing.T) {
	specs := testGrid(t)
	var calls atomic.Int64
	swapFirst := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != runPath || calls.Add(1) != 1 {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
			if len(lines) >= 2 {
				lines[0], lines[1] = lines[1], lines[0]
			}
			for _, l := range lines {
				w.Write(l)
			}
		})
	}
	c := runFleet(t, &Coordinator{
		Workers:   []string{faultServer(t, swapFirst)},
		RangeSize: 3,
	}, specs, false)
	var failures int64
	for _, ws := range c.Snapshot().Workers {
		failures += ws.Failures
	}
	if failures == 0 {
		t.Error("misordered stream produced no lease failures")
	}
}

// TestUnstampedStreamFailsLease strips the schema_version stamp from
// an otherwise-valid stream: records from a build that predates the
// wire stamp must be rejected, not silently merged.
func TestUnstampedStreamFailsLease(t *testing.T) {
	specs := testGrid(t)
	var calls atomic.Int64
	stripStamp := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != runPath || calls.Add(1) != 1 {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := strings.ReplaceAll(rec.Body.String(), `"schema_version":`+strconv.Itoa(exp.SchemaVersion)+`,`, "")
			io.WriteString(w, body)
		})
	}
	c := runFleet(t, &Coordinator{
		Workers:   []string{faultServer(t, stripStamp)},
		RangeSize: 3,
	}, specs, false)
	var failures int64
	for _, ws := range c.Snapshot().Workers {
		failures += ws.Failures
	}
	if failures == 0 {
		t.Error("unstamped stream produced no lease failures")
	}
}
