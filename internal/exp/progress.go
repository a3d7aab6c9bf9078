package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Progress aggregates Engine.OnRunDone callbacks into a live sweep
// progress view: a throttled one-line stderr report and a JSON
// snapshot (served at /progress by dsmrun -metrics-addr). Purely
// host-side — it never touches the sweep's JSON-lines output.
type Progress struct {
	// Total is the number of unique runs expected (see UniqueRuns).
	Total int
	// Out, when non-nil, receives a progress line at most every
	// Interval (and one final line when the count reaches Total).
	Out io.Writer
	// Interval throttles Out; zero means one second.
	Interval time.Duration
	// Engine, when non-nil, lets progress lines and snapshots report
	// cache hits and in-flight runs alongside the completion count.
	Engine *Engine

	mu       sync.Mutex
	start    time.Time
	executed int // runs actually simulated (RunDone)
	diskHits int // runs served from the persistent store (StoreHit)
	// done counts runs complete. An engine reports each run once, by
	// RunDone or StoreHit, so the count ends at Total.
	done     int
	errs     int
	hostNS   int64
	lastLine time.Time
}

// NewProgress builds a Progress for total unique runs reporting to out
// (nil for snapshot-only use). Hook it up with
// eng.OnRunDone = p.RunDone.
func NewProgress(total int, out io.Writer, eng *Engine) *Progress {
	return &Progress{Total: total, Out: out, Engine: eng}
}

// UniqueRuns returns the number of distinct engine executions a sweep
// over specs will perform: unique canonical specs (Spec.Canonical) —
// label-only repeats share a run — counting each non-seq spec's
// sequential baseline when joinSpeedup is set. This is the Total a
// Progress should be built with.
func UniqueRuns(specs []Spec, joinSpeedup bool) int {
	return PlanRuns(specs, joinSpeedup).Len()
}

// AddTotal grows the expected-run count by n. A fabric worker learns
// its workload one lease at a time, so its Progress starts at zero and
// accumulates; safe for concurrent use.
func (p *Progress) AddTotal(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.Total += n
	p.mu.Unlock()
}

// RunDone records one completed run. It matches the Engine.OnRunDone
// signature and is safe for concurrent use; on a nil Progress it is a
// no-op.
func (p *Progress) RunDone(_ Spec, hostNS int64, err error) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.executed++
	p.hostNS += hostNS
	if err != nil {
		p.errs++
	}
	p.advanceLocked()
}

// StoreHit records one run served from the persistent store. It
// matches the Engine.OnStoreHit signature; store hits advance the
// completion count but are excluded from the ETA estimate — a disk
// read says nothing about how long the remaining simulations take.
func (p *Progress) StoreHit(Spec) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.diskHits++
	p.advanceLocked()
}

// advanceLocked finishes a completion event: counts the run complete,
// starts the clock, emits a throttled line, and releases p.mu.
func (p *Progress) advanceLocked() {
	p.done++
	now := time.Now()
	if p.start.IsZero() {
		p.start = now
	}
	line := ""
	interval := p.Interval
	if interval <= 0 {
		interval = time.Second
	}
	if p.Out != nil && (p.done == p.Total || now.Sub(p.lastLine) >= interval) {
		p.lastLine = now
		line = p.lineLocked(now)
	}
	p.mu.Unlock()
	if line != "" {
		fmt.Fprintln(p.Out, line)
	}
}

// lineLocked renders the stderr progress line. Caller holds p.mu.
func (p *Progress) lineLocked(now time.Time) string {
	elapsed := now.Sub(p.start)
	completed := p.done
	line := fmt.Sprintf("sweep: %d/%d runs", completed, p.Total)
	if p.errs > 0 {
		line += fmt.Sprintf(", %d failed", p.errs)
	}
	mem := int64(0)
	if e := p.Engine; e != nil {
		mem = e.HostStats().CacheHits
	}
	if p.Engine != nil || p.diskHits > 0 {
		line += fmt.Sprintf(", hits %d mem/%d disk", mem, p.diskHits)
	}
	line += fmt.Sprintf(", elapsed %s", elapsed.Round(100*time.Millisecond))
	// The ETA extrapolates from executed runs only: store and cache
	// hits are effectively instant, and averaging them in would
	// collapse the estimate toward zero on a half-warm sweep.
	if p.executed > 0 && completed < p.Total {
		perRun := float64(elapsed) / float64(p.executed)
		eta := time.Duration(perRun * float64(p.Total-completed))
		line += fmt.Sprintf(", eta %s", eta.Round(100*time.Millisecond))
	}
	return line
}

// ProgressSnapshot is the JSON shape served at /progress. Done counts
// completed runs, however they completed; Executed counts simulations
// and DiskHits runs served from the store.
type ProgressSnapshot struct {
	Done           int     `json:"done"`
	Executed       int     `json:"executed"`
	DiskHits       int     `json:"disk_hits,omitempty"`
	Total          int     `json:"total"`
	Errors         int     `json:"errors"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// RunHostSeconds is the summed host wall time of the completed
	// runs (exceeds ElapsedSeconds when workers overlap).
	RunHostSeconds float64 `json:"run_host_seconds"`
	EtaSeconds     float64 `json:"eta_seconds,omitempty"`
	CacheHits      int64   `json:"cache_hits,omitempty"`
	Inflight       int64   `json:"inflight,omitempty"`
}

// Snapshot returns the current progress state.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	snap := ProgressSnapshot{
		Done:           p.done,
		Executed:       p.executed,
		DiskHits:       p.diskHits,
		Total:          p.Total,
		Errors:         p.errs,
		RunHostSeconds: float64(p.hostNS) / 1e9,
	}
	if !p.start.IsZero() {
		snap.ElapsedSeconds = time.Since(p.start).Seconds()
	}
	// ETA from executed runs only; see lineLocked.
	if snap.Executed > 0 && snap.Done < snap.Total {
		snap.EtaSeconds = snap.ElapsedSeconds / float64(snap.Executed) * float64(snap.Total-snap.Done)
	}
	p.mu.Unlock()
	if e := p.Engine; e != nil {
		hs := e.HostStats()
		snap.CacheHits = hs.CacheHits
		snap.Inflight = hs.Inflight
	}
	return snap
}

// ServeHTTP serves the snapshot as JSON.
func (p *Progress) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p.Snapshot()) //nolint:errcheck // client went away
}
