package exp

import (
	"encoding/json"
	"expvar"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// HostStats are the engine's host-side execution counters: how much
// real work the sweep machinery did, as opposed to the virtual-time
// results it produced. They are always collected (cheap atomics) and
// never influence run results — a sweep's JSON-lines output is
// byte-identical whether or not anybody reads them.
type HostStats struct {
	// RunsStarted / RunsCompleted count cache misses: specs this
	// engine actually executed (started may briefly exceed completed).
	RunsStarted   int64 `json:"runs_started"`
	RunsCompleted int64 `json:"runs_completed"`
	// RunsFailed counts the executed runs that returned an error.
	RunsFailed int64 `json:"runs_failed"`
	// RunsPlanned sums the streams' PlanRuns lengths; RunsResolved counts
	// those runs as the prefetch settles them: executed, cached, or
	// indexed by the store (and read when their line is written). They
	// are a sweep's progress, equal once a stream returns (unless a
	// write failure cut it short).
	RunsPlanned  int64 `json:"runs_planned"`
	RunsResolved int64 `json:"runs_resolved"`
	// CacheHits counts run-cache lookups answered by a finished entry;
	// CacheWaits counts lookups that latched onto an in-flight run. The
	// record paths ask the run cache once per run, so labels of a run
	// count in neither.
	CacheHits  int64 `json:"cache_hits"`
	CacheWaits int64 `json:"cache_waits"`
	// Inflight is the number of simulations executing right now.
	Inflight int64 `json:"inflight"`
	// WorkerBusyNS / WorkerIdleNS split the sweep pool's wall time
	// between running simulations and waiting for work.
	WorkerBusyNS int64 `json:"worker_busy_ns"`
	WorkerIdleNS int64 `json:"worker_idle_ns"`
	// StoreHits counts runs served from the persistent store, once per
	// run per stream (record paths; each skipped an entire simulation).
	StoreHits int64 `json:"store_hits"`
}

// hostStats is the atomic backing store for HostStats.
type hostStats struct {
	runsStarted   atomic.Int64
	runsCompleted atomic.Int64
	runsFailed    atomic.Int64
	runsPlanned   atomic.Int64
	runsResolved  atomic.Int64
	cacheHits     atomic.Int64
	cacheWaits    atomic.Int64
	inflight      atomic.Int64
	workerBusyNS  atomic.Int64
	workerIdleNS  atomic.Int64
	storeHits     atomic.Int64
}

// HostStats returns a snapshot of the engine's host-side counters. The
// loads run in the literal's order, a count before its bound, so no
// snapshot shows more runs completed than started or resolved than planned.
func (e *Engine) HostStats() HostStats {
	return HostStats{
		RunsFailed:    e.host.runsFailed.Load(),
		RunsCompleted: e.host.runsCompleted.Load(),
		RunsStarted:   e.host.runsStarted.Load(),
		RunsResolved:  e.host.runsResolved.Load(),
		RunsPlanned:   e.host.runsPlanned.Load(),
		CacheHits:     e.host.cacheHits.Load(),
		CacheWaits:    e.host.cacheWaits.Load(),
		Inflight:      e.host.inflight.Load(),
		WorkerBusyNS:  e.host.workerBusyNS.Load(),
		WorkerIdleNS:  e.host.workerIdleNS.Load(),
		StoreHits:     e.host.storeHits.Load(),
	}
}

// StoreTelemetry is a telemetry map's "store" section: the reported
// store's counters plus its size, its live entries and the
// process-wide count of failed opens.
type StoreTelemetry struct {
	store.Stats
	Bytes      int64 `json:"bytes"`
	Entries    int   `json:"entries"`
	OpenErrors int64 `json:"open_errors"`
}

// reporting is a telemetry map's "engine" section: every engine whose
// Metrics is the map, their HostStats summed — dsmrun -tables keeps a
// plain and an observing engine on one map. The first of them to have
// a store also sets the "store" section.
// Alongside, the map carries "sim" (sim.HostTotals) and the per
// "app/version" run histograms "run_host_seconds" and
// "run_alloc_bytes".
type reporting struct {
	mu      sync.Mutex
	engines []*Engine
	store   *store.Store

	runSeconds, allocBytes *expvar.Map // by "app/version"; histMu orders get-or-create
	histMu                 sync.Mutex
}

// String is the JSON of the summed HostStats, making reporting an
// expvar.Var.
func (g *reporting) String() string {
	var sum HostStats
	g.mu.Lock()
	for _, e := range g.engines {
		h := e.HostStats()
		sum.RunsStarted += h.RunsStarted
		sum.RunsCompleted += h.RunsCompleted
		sum.RunsFailed += h.RunsFailed
		sum.RunsPlanned += h.RunsPlanned
		sum.RunsResolved += h.RunsResolved
		sum.CacheHits += h.CacheHits
		sum.CacheWaits += h.CacheWaits
		sum.Inflight += h.Inflight
		sum.WorkerBusyNS += h.WorkerBusyNS
		sum.WorkerIdleNS += h.WorkerIdleNS
		sum.StoreHits += h.StoreHits
	}
	g.mu.Unlock()
	b, _ := json.Marshal(sum)
	return string(b)
}

// joinMu orders engines joining a map, so one map gets one reporting.
var joinMu sync.Mutex

// telemetryInit joins the engine to its map's reporting, once, setting
// the sections the map does not have yet. Sections are set outside
// g.mu: a read of the map holds its key lock while it takes g.mu.
func (e *Engine) telemetryInit() {
	m := e.Metrics
	if m == nil {
		return
	}
	e.telemetryOnce.Do(func() {
		joinMu.Lock()
		defer joinMu.Unlock()
		g, _ := m.Get("engine").(*reporting)
		if g == nil {
			g = &reporting{runSeconds: new(expvar.Map), allocBytes: new(expvar.Map)}
			m.Set("engine", g)
			m.Set("sim", expvar.Func(func() any { return sim.HostTotals() }))
			m.Set("run_host_seconds", g.runSeconds)
			m.Set("run_alloc_bytes", g.allocBytes)
		}
		st := e.Store
		g.mu.Lock()
		g.engines = append(g.engines, e)
		claim := st != nil && g.store == nil
		if claim {
			g.store = st
		}
		g.mu.Unlock()
		if claim {
			m.Set("store", expvar.Func(func() any {
				return StoreTelemetry{Stats: st.Stats(), Bytes: st.SizeBytes(), Entries: st.Len(), OpenErrors: store.OpenErrors()}
			}))
		}
		e.rep = g
	})
}

// observeRun records one executed run into its app/version histograms:
// host time from 100µs to ~13s, alloc volume from 64KiB to ~16GiB.
func (e *Engine) observeRun(s Spec, hostNS int64, allocBytes uint64) {
	g := e.rep
	key := s.App + "/" + string(s.Version)
	g.histMu.Lock()
	secs, _ := g.runSeconds.Get(key).(*metrics.Histogram)
	alloc, _ := g.allocBytes.Get(key).(*metrics.Histogram)
	if secs == nil {
		secs, alloc = metrics.NewHistogram(0.0001, 2, 18), metrics.NewHistogram(65536, 4, 10)
		g.runSeconds.Set(key, secs)
		g.allocBytes.Set(key, alloc)
	}
	g.histMu.Unlock()
	secs.Observe(float64(hostNS) / 1e9)
	alloc.Observe(float64(allocBytes))
}

// heapAllocBytes reads the runtime's cumulative heap-allocation
// counter. Process-wide: concurrent runs inflate each other's deltas,
// which is acceptable for an informational histogram.
func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}
