package exp

import (
	"bytes"
	"encoding/json"
	"expvar"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/sim"
)

// telemetryDoc is an engine telemetry map's JSON document.
type telemetryDoc struct {
	Engine         HostStats                            `json:"engine"`
	Sim            sim.HostStats                        `json:"sim"`
	Store          StoreTelemetry                       `json:"store"`
	RunHostSeconds map[string]metrics.HistogramSnapshot `json:"run_host_seconds"`
	RunAllocBytes  map[string]metrics.HistogramSnapshot `json:"run_alloc_bytes"`
}

// readTelemetry decodes m's document strictly: a section or field the
// document type does not know fails the test.
func readTelemetry(t *testing.T, m *expvar.Map) telemetryDoc {
	t.Helper()
	var doc telemetryDoc
	dec := json.NewDecoder(strings.NewReader(m.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("telemetry document %s: %v", m.String(), err)
	}
	return doc
}

// TestTelemetryKeepsSweepBytes is telemetry's central guarantee: a
// sweep with a live telemetry map and the speedup join enabled produces
// JSON-lines byte-identical to a bare engine's, at every worker count,
// and its engine section ends with every planned run resolved.
func TestTelemetryKeepsSweepBytes(t *testing.T) {
	specs := testGrid()

	var bare bytes.Buffer
	eb := New()
	eb.Workers = 1
	eb.JoinSpeedup = true
	if _, err := eb.StreamWith(&bare, specs, nil); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		var out bytes.Buffer
		e := New()
		e.Workers = workers
		e.JoinSpeedup = true
		e.Metrics = new(expvar.Map)
		if _, err := e.StreamWith(&out, specs, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bare.Bytes(), out.Bytes()) {
			t.Errorf("workers=%d: telemetry changed the sweep bytes:\nbare:\n%s\ninstrumented:\n%s",
				workers, bare.String(), out.String())
		}
		// 16 specs and 4 baselines: 12 and 2 runs, the xhpf cells and
		// the baselines each running once for both protocol labels.
		if hs := readTelemetry(t, e.Metrics).Engine; hs.RunsPlanned != 14 || hs.RunsResolved != 14 || hs.RunsStarted != 14 {
			t.Errorf("workers=%d: engine section %+v after a completed sweep, want 14 runs planned, resolved and started", workers, hs)
		}
	}
}

// TestEngineHostStats checks the cache-outcome classification: every
// unique spec executes once, repeats count as hits, and the map's
// engine section agrees with HostStats.
func TestEngineHostStats(t *testing.T) {
	e := New()
	e.Metrics = new(expvar.Map)
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

	doc := readTelemetry(t, e.Metrics)
	if doc.Engine != hs {
		t.Errorf("engine section %+v, HostStats %+v", doc.Engine, hs)
	}
	if n := doc.RunHostSeconds["Jacobi/tmk"].Count; n != 1 {
		t.Errorf("Jacobi/tmk host-time histogram holds %d runs, want 1", n)
	}
	if n := doc.RunAllocBytes["Jacobi/tmk"].Count; n != 1 {
		t.Errorf("Jacobi/tmk alloc histogram holds %d runs, want 1", n)
	}
	if doc.Sim.Dispatches == 0 {
		t.Error("sim section reports no dispatches after a run")
	}
}

// TestEnginesShareARegistry: engines reporting on one map — a plain
// and an observing one over one store, as dsmrun -tables keeps —
// report their summed counters, and the store's once. The engines join
// and run concurrently while the map is read, as a live scrape does.
func TestEnginesShareARegistry(t *testing.T) {
	reg := new(expvar.Map)
	st := openStoreT(t, t.TempDir())
	plain, observed := New(), New()
	observed.Observe = true
	for _, e := range []*Engine{plain, observed} {
		e.Metrics, e.Store = reg, st
	}
	specs := testGrid()[:3]
	var wg sync.WaitGroup
	for _, e := range []*Engine{plain, observed} {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if _, err := e.StreamWith(io.Discard, specs, nil); err != nil {
				t.Error(err)
			}
		}(e)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if doc := reg.String(); !json.Valid([]byte(doc)) {
			t.Fatalf("a scrape during the sweeps is not JSON: %s", doc)
		}
	}
	doc := readTelemetry(t, reg)
	if doc.Engine.RunsStarted != 6 || doc.Store.Puts != 6 {
		t.Errorf("engine section %+v, store section %+v: want 6 runs started and 6 puts", doc.Engine, doc.Store)
	}
}

// TestPlanRunsLen pins the progress denominator: duplicates collapse,
// and the speedup join adds one seq baseline per application and scale.
func TestPlanRunsLen(t *testing.T) {
	mk := func(v core.Version, procs int) Spec {
		s := Spec{App: "Jacobi", Version: v, Procs: procs, Scale: core.SmallScale, Protocol: proto.HomelessLRC}
		return s.Normalize()
	}
	specs := []Spec{mk(core.Tmk, 2), mk(core.Tmk, 2), mk(core.Tmk, 4), mk(core.Seq, 1)}
	if got := PlanRuns(specs, false).Len(); got != 3 {
		t.Errorf("PlanRuns(join=false) = %d, want 3", got)
	}
	// Both non-seq specs share one seq baseline, and it is the same run
	// as the explicit seq spec — the join adds nothing here.
	if got := PlanRuns(specs, true).Len(); got != 3 {
		t.Errorf("PlanRuns(join=true) = %d, want 3", got)
	}
	// Without the explicit seq spec the join adds exactly one baseline.
	if got := PlanRuns(specs[:3], true).Len(); got != 3 {
		t.Errorf("PlanRuns(no explicit seq, join=true) = %d, want 3", got)
	}
	if got := PlanRuns(specs[:3], false).Len(); got != 2 {
		t.Errorf("PlanRuns(no explicit seq, join=false) = %d, want 2", got)
	}
}
