package fabric

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/store"
)

// Worker executes leased spec ranges through exp engines and streams
// stamped records back. One Worker serves any number of concurrent
// leases: ranges run through a shared engine per (speedup, observe)
// option combination, so the run-keyed single-flight cache serves a
// range leased again after an abandoned attempt, and leases from
// several coordinators that overlap, without re-running them.
type Worker struct {
	// Workers bounds each engine's host worker pool; 0 means all cores.
	Workers int
	// Metrics, when non-nil, is the telemetry map carrying the worker's
	// "fabric_worker" section (Counters) and its engines' sections: the
	// engine section's runs_resolved of runs_planned is the worker's
	// progress over every lease it has taken.
	Metrics *expvar.Map
	// Logf, when non-nil, receives one line per lease served/rejected.
	Logf func(format string, args ...any)
	// Store, when non-nil, is the worker's local persistent result
	// store: leased specs already on disk are served without executing,
	// and executed records are written back. Set before the first lease
	// (engines capture it at creation).
	Store *store.Store
	// StallPerRecord, when > 0, sleeps that long per streamed record —
	// a test hook that makes this worker deliberately slow.
	StallPerRecord time.Duration

	// KillAfterRecords > 0 injects a fault: after streaming that many
	// records (across all leases), the worker invokes Kill. The default
	// Kill marks the worker dead (every later request answers 503) and
	// aborts the in-flight connection mid-stream — the client sees a
	// truncated range, exactly like a crashed process. cmd/sweepd
	// replaces Kill with os.Exit for whole-process kills in CI.
	KillAfterRecords int64
	Kill             func()

	mu      sync.Mutex
	engines map[bool]*exp.Engine // by Observe

	dead     atomic.Bool
	draining atomic.Bool

	// activeMu guards activeN, the in-flight /run count; Drain flips
	// draining under the same lock, so a lease either registers before
	// the drain (and is awaited) or observes it (and is refused).
	activeMu   sync.Mutex
	activeIdle *sync.Cond
	activeN    int

	leasesActive  atomic.Int64
	leasesServed  atomic.Int64
	leasesDenied  atomic.Int64
	recordsOut    atomic.Int64
	recordsFailed atomic.Int64
}

// WorkerCounters is a worker's lease and record accounting, its
// telemetry map's "fabric_worker" section.
type WorkerCounters struct {
	// LeasesActive counts the leases streaming right now.
	LeasesActive int64 `json:"leases_active"`
	// Leases counts leases accepted and streamed; LeasesDenied those
	// rejected (schema mismatch, bad keys, a dead or draining worker).
	Leases       int64 `json:"leases"`
	LeasesDenied int64 `json:"leases_denied"`
	// Records counts records streamed back to coordinators;
	// RecordFailures those of them that carried a run failure.
	Records        int64 `json:"records"`
	RecordFailures int64 `json:"record_failures"`
}

// NewWorker builds a worker that sets its "fabric_worker" section on m
// (nil: no telemetry).
func NewWorker(m *expvar.Map) *Worker {
	w := &Worker{
		Metrics: m,
		engines: map[bool]*exp.Engine{},
	}
	w.activeIdle = sync.NewCond(&w.activeMu)
	if m != nil {
		m.Set("fabric_worker", expvar.Func(func() any { return w.Counters() }))
	}
	return w
}

// Counters returns the worker's lease and record counters.
func (w *Worker) Counters() WorkerCounters {
	return WorkerCounters{
		LeasesActive:   w.leasesActive.Load(),
		Leases:         w.leasesServed.Load(),
		LeasesDenied:   w.leasesDenied.Load(),
		Records:        w.recordsOut.Load(),
		RecordFailures: w.recordsFailed.Load(),
	}
}

// engine resolves the engine that observes or not, creating it on
// first use. Engine options are fields, not per-call parameters, so
// concurrent leases with different options get distinct engines (and
// distinct caches). Every engine reports on the worker's map, whose
// engine section sums their host telemetry.
func (w *Worker) engine(observe bool) *exp.Engine {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.engines[observe]; ok {
		return e
	}
	e := exp.New()
	e.Workers = w.Workers
	e.Observe = observe
	e.Metrics = w.Metrics
	e.Store = w.Store
	w.engines[observe] = e
	return e
}

// Routes returns the worker's endpoint handlers keyed by path, for
// mounting next to /metrics and /debug/pprof/* via metrics.NewMux.
func (w *Worker) Routes() map[string]http.Handler {
	return map[string]http.Handler{
		healthPath: http.HandlerFunc(w.handleHealth),
		runPath:    http.HandlerFunc(w.handleRun),
	}
}

// Handler builds a standalone mux over Routes (tests and embedded
// workers; daemons use metrics.NewMux to add /metrics and pprof).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, h := range w.Routes() {
		mux.Handle(path, h)
	}
	return mux
}

// handleHealth serves the schema handshake. A dead (killed) or
// draining worker answers 503 so coordinators stop considering it.
func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	if w.dead.Load() {
		http.Error(rw, "fabric: worker killed", http.StatusServiceUnavailable)
		return
	}
	if w.draining.Load() {
		http.Error(rw, "fabric: worker draining", http.StatusServiceUnavailable)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(hello{OK: true, SchemaVersion: exp.SchemaVersion}) //nolint:errcheck // client went away
}

// beginLease registers an in-flight /run; false means the worker is
// draining and the lease must be refused.
func (w *Worker) beginLease() bool {
	w.activeMu.Lock()
	defer w.activeMu.Unlock()
	if w.draining.Load() {
		return false
	}
	w.activeN++
	return true
}

func (w *Worker) endLease() {
	w.activeMu.Lock()
	w.activeN--
	if w.activeN == 0 {
		w.activeIdle.Broadcast()
	}
	w.activeMu.Unlock()
}

// handleRun leases one range: decode, validate, execute, stream.
func (w *Worker) handleRun(rw http.ResponseWriter, req *http.Request) {
	if w.dead.Load() {
		w.leasesDenied.Add(1)
		http.Error(rw, "fabric: worker killed", http.StatusServiceUnavailable)
		return
	}
	if !w.beginLease() {
		w.leasesDenied.Add(1)
		http.Error(rw, "fabric: worker draining", http.StatusServiceUnavailable)
		return
	}
	defer w.endLease()
	var rr runRequest
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil {
		w.leasesDenied.Add(1)
		http.Error(rw, fmt.Sprintf("fabric: malformed run request: %v", err), http.StatusBadRequest)
		return
	}
	if rr.SchemaVersion != exp.SchemaVersion {
		w.leasesDenied.Add(1)
		w.logf("fabric worker: lease %s rejected: coordinator schema_version %d, this build %d",
			rr.Lease, rr.SchemaVersion, exp.SchemaVersion)
		http.Error(rw, fmt.Sprintf("fabric: schema_version %d does not match this build's %d",
			rr.SchemaVersion, exp.SchemaVersion), http.StatusBadRequest)
		return
	}
	if len(rr.Keys) == 0 {
		w.leasesDenied.Add(1)
		http.Error(rw, "fabric: empty lease", http.StatusBadRequest)
		return
	}
	specs := make([]exp.Spec, len(rr.Keys))
	for i, key := range rr.Keys {
		s, err := exp.ParseKey(key)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			w.leasesDenied.Add(1)
			http.Error(rw, fmt.Sprintf("fabric: bad spec key %q: %v", key, err), http.StatusBadRequest)
			return
		}
		specs[i] = s
	}

	w.leasesActive.Add(1)
	defer w.leasesActive.Add(-1)
	w.leasesServed.Add(1)
	w.logf("fabric worker: lease %s: %d specs (%s .. %s)", rr.Lease, len(specs), rr.Keys[0], rr.Keys[len(rr.Keys)-1])

	// StreamWith returns with the lease's write-backs synced to the
	// store: the lease end is the worker's commit point.
	eng := w.engine(rr.Observe)
	rw.Header().Set("Content-Type", "application/x-ndjson")
	out := &flushWriter{w: rw}
	stats, err := eng.StreamWith(out, specs, func(rec *exp.Record) {
		if d := w.StallPerRecord; d > 0 {
			time.Sleep(d)
		}
		rec.SchemaVersion = exp.SchemaVersion
		if rec.Error != "" {
			w.recordsFailed.Add(1)
		}
		if out := w.recordsOut.Add(1); w.KillAfterRecords > 0 && out >= w.KillAfterRecords {
			w.die()
		}
	})
	if err != nil {
		// Run failures already travelled as error records; a write error
		// means the coordinator hung up — nothing left to tell it.
		w.logf("fabric worker: lease %s: %d/%d records failed: %v", rr.Lease, stats.Failed, stats.Records, err)
	}
}

// Drain shuts the worker down gracefully: new leases (and health
// checks) answer 503 immediately, in-flight leases run to completion,
// and the local store — if any — is synced and closed so every record
// streamed so far survives on disk. It returns an error if the
// in-flight leases do not finish within timeout (the store is still
// closed, and Close syncs every frame appended so far, so at worst the
// store misses the interrupted lease's tail).
func (w *Worker) Drain(timeout time.Duration) error {
	w.activeMu.Lock()
	w.draining.Store(true)
	w.activeMu.Unlock()
	done := make(chan struct{})
	go func() {
		w.activeMu.Lock()
		for w.activeN > 0 {
			w.activeIdle.Wait()
		}
		w.activeMu.Unlock()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(timeout):
		err = fmt.Errorf("fabric: drain timed out after %s with leases still in flight", timeout)
	}
	if w.Store != nil {
		if cerr := w.Store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	w.logf("fabric worker: drained (%d records streamed)", w.recordsOut.Load())
	return err
}

// die executes the injected kill: by default the worker goes dead
// (503s from now on) and the current stream is aborted mid-record.
func (w *Worker) die() {
	w.dead.Store(true)
	w.logf("fabric worker: injected kill after %d records", w.recordsOut.Load())
	if w.Kill != nil {
		w.Kill()
		return
	}
	panic(http.ErrAbortHandler)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// flushWriter flushes the HTTP response after every write, so the
// coordinator sees each record as soon as it is final (liveness, and
// partial streams on crash rather than an empty buffered response).
type flushWriter struct {
	w http.ResponseWriter
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}
