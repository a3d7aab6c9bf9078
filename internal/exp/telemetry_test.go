package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// TestTelemetryKeepsSweepBytes is the PR's central guarantee: a sweep
// with a live metrics registry, an OnRunDone progress hook and the
// speedup join enabled produces JSON-lines byte-identical to a bare
// engine's, at every worker count.
func TestTelemetryKeepsSweepBytes(t *testing.T) {
	specs := testGrid()

	var bare bytes.Buffer
	eb := New()
	eb.Workers = 1
	eb.JoinSpeedup = true
	if err := eb.Stream(&bare, specs); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		var out bytes.Buffer
		e := New()
		e.Workers = workers
		e.JoinSpeedup = true
		e.Metrics = metrics.NewRegistry()
		p := NewProgress(UniqueRuns(specs, true), io.Discard, e)
		e.OnRunDone = p.RunDone
		if err := e.Stream(&out, specs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bare.Bytes(), out.Bytes()) {
			t.Errorf("workers=%d: telemetry changed the sweep bytes:\nbare:\n%s\ninstrumented:\n%s",
				workers, bare.String(), out.String())
		}
		// 16 specs and 4 baselines: 12 and 2 runs, the xhpf cells and
		// the baselines each running once for both protocol labels.
		if snap := p.Snapshot(); snap.Done != 14 || snap.Total != 14 || snap.Executed != 14 {
			t.Errorf("workers=%d: progress %+v after a completed sweep, want 14/14 runs", workers, snap)
		}
	}
}

// TestEngineHostStats checks the cache-outcome classification: every
// unique spec executes once, repeats count as hits, and the registry's
// counter families agree with HostStats.
func TestEngineHostStats(t *testing.T) {
	e := New()
	e.Metrics = metrics.NewRegistry()
	s := Spec{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC}
	s = s.Normalize()
	for i := 0; i < 3; i++ {
		if _, err := e.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	hs := e.HostStats()
	if hs.RunsStarted != 1 || hs.RunsCompleted != 1 {
		t.Errorf("started/completed = %d/%d, want 1/1", hs.RunsStarted, hs.RunsCompleted)
	}
	if hs.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", hs.CacheHits)
	}
	if hs.Inflight != 0 {
		t.Errorf("inflight = %d, want 0", hs.Inflight)
	}
	if got := e.HostRunNanos(s); got <= 0 {
		t.Errorf("HostRunNanos = %d, want > 0", got)
	}
	if got := e.HostRunNanos(Spec{App: "Jacobi", Version: core.Seq, Procs: 1, Scale: core.SmallScale}); got != 0 {
		t.Errorf("HostRunNanos of never-run spec = %d, want 0", got)
	}

	var buf bytes.Buffer
	if err := e.Metrics.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"dsm_engine_cache_hits_total 2",
		"dsm_engine_runs_completed_total 1",
		`dsm_engine_run_host_seconds_bucket{app="Jacobi",version="tmk",le="+Inf"} 1`,
		`dsm_engine_run_alloc_bytes_count{app="Jacobi",version="tmk"} 1`,
		"dsm_sim_dispatches_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if _, err := metrics.ValidateText(strings.NewReader(text)); err != nil {
		t.Errorf("engine exposition invalid: %v", err)
	}
}

// TestEnginesShareARegistry: engines reporting on one registry — a
// plain and an observing one over one store, as dsmrun -tables keeps —
// report their summed counters, and the store's once.
func TestEnginesShareARegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	st := openStoreT(t, t.TempDir())
	plain, observed := New(), New()
	observed.Observe = true
	for _, e := range []*Engine{plain, observed} {
		e.Metrics, e.Store = reg, st
	}
	specs := testGrid()[:3]
	for _, e := range []*Engine{plain, observed} {
		if _, err := e.StreamWith(io.Discard, specs, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dsm_engine_runs_started_total 6\n",
		"dsm_store_puts_total 6\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestProgressSnapshot drives the hook directly and checks the JSON
// shape /progress serves, including the stderr line path.
func TestProgressSnapshot(t *testing.T) {
	var lines bytes.Buffer
	p := NewProgress(2, &lines, nil)
	p.Interval = -1 // fall back to the 1s default; only the final line prints
	s := Spec{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC}
	p.RunDone(s, 5e6, nil)
	mid := p.Snapshot()
	if mid.Done != 1 || mid.Total != 2 || mid.EtaSeconds <= 0 {
		t.Errorf("mid snapshot %+v, want done=1 total=2 eta>0", mid)
	}
	s.Procs = 4 // another run: one run completes once
	p.RunDone(s, 7e6, errTest)
	snap := p.Snapshot()
	if snap.Done != 2 || snap.Errors != 1 || snap.EtaSeconds != 0 {
		t.Errorf("final snapshot %+v, want done=2 errors=1 eta=0", snap)
	}
	if want := 0.012; snap.RunHostSeconds != want {
		t.Errorf("run host seconds = %g, want %g", snap.RunHostSeconds, want)
	}
	if b, err := json.Marshal(snap); err != nil || !bytes.Contains(b, []byte(`"done":2`)) {
		t.Errorf("snapshot JSON = %s, err %v", b, err)
	}
	got := lines.String()
	if !strings.Contains(got, "sweep: 2/2 runs") || !strings.Contains(got, "1 failed") {
		t.Errorf("final progress line %q", got)
	}
	// Nil progress: the hook must be safely ignorable.
	var np *Progress
	np.RunDone(s, 1, nil)
	if np.Snapshot().Total != 0 {
		t.Error("nil progress snapshot non-zero")
	}
}

var errTest = errInstance{}

type errInstance struct{}

func (errInstance) Error() string { return "test failure" }

// TestUniqueRuns pins the progress denominator: duplicates collapse,
// and the speedup join adds one seq baseline per application and scale.
func TestUniqueRuns(t *testing.T) {
	mk := func(v core.Version, procs int) Spec {
		s := Spec{App: "Jacobi", Version: v, Procs: procs, Scale: core.SmallScale, Protocol: proto.HomelessLRC}
		return s.Normalize()
	}
	specs := []Spec{mk(core.Tmk, 2), mk(core.Tmk, 2), mk(core.Tmk, 4), mk(core.Seq, 1)}
	if got := UniqueRuns(specs, false); got != 3 {
		t.Errorf("UniqueRuns(join=false) = %d, want 3", got)
	}
	// Both non-seq specs share one seq baseline, and it is the same run
	// as the explicit seq spec — the join adds nothing here.
	if got := UniqueRuns(specs, true); got != 3 {
		t.Errorf("UniqueRuns(join=true) = %d, want 3", got)
	}
	// Without the explicit seq spec the join adds exactly one baseline.
	if got := UniqueRuns(specs[:3], true); got != 3 {
		t.Errorf("UniqueRuns(no explicit seq, join=true) = %d, want 3", got)
	}
	if got := UniqueRuns(specs[:3], false); got != 2 {
		t.Errorf("UniqueRuns(no explicit seq, join=false) = %d, want 2", got)
	}
}
