package exp

import (
	rtmetrics "runtime/metrics"
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
	RunsStarted   int64
	RunsCompleted int64
	// CacheHits counts run-cache lookups answered by a finished entry;
	// CacheWaits counts lookups that latched onto an in-flight run. The
	// record paths ask the run cache once per run, so labels of a run
	// count in neither.
	CacheHits  int64
	CacheWaits int64
	// Inflight is the number of simulations executing right now.
	Inflight int64
	// WorkerBusyNS / WorkerIdleNS split the sweep pool's wall time
	// between running simulations and waiting for work.
	WorkerBusyNS int64
	WorkerIdleNS int64
	// StoreHits counts runs served from the persistent store (record
	// paths; each skipped an entire simulation).
	StoreHits int64
}

// hostStats is the atomic backing store for HostStats.
type hostStats struct {
	runsStarted   atomic.Int64
	runsCompleted atomic.Int64
	cacheHits     atomic.Int64
	cacheWaits    atomic.Int64
	inflight      atomic.Int64
	workerBusyNS  atomic.Int64
	workerIdleNS  atomic.Int64
	storeHits     atomic.Int64
}

// HostStats returns a snapshot of the engine's host-side counters.
func (e *Engine) HostStats() HostStats {
	return HostStats{
		RunsStarted:   e.host.runsStarted.Load(),
		RunsCompleted: e.host.runsCompleted.Load(),
		CacheHits:     e.host.cacheHits.Load(),
		CacheWaits:    e.host.cacheWaits.Load(),
		Inflight:      e.host.inflight.Load(),
		WorkerBusyNS:  e.host.workerBusyNS.Load(),
		WorkerIdleNS:  e.host.workerIdleNS.Load(),
		StoreHits:     e.host.storeHits.Load(),
	}
}

// Metric names and help strings. The engine's registry families are
// func-backed views over the always-on atomics above (no double
// bookkeeping); only the two histograms are registry-native.
const (
	mRunSeconds    = "dsm_engine_run_host_seconds"
	helpRunSeconds = "Host wall time of one simulated run, by app and version."
	mAllocBytes    = "dsm_engine_run_alloc_bytes"
	helpAllocBytes = "Heap bytes allocated process-wide during one run (approximate under concurrency), by app and version."
	mRunsStarted   = "dsm_engine_runs_started_total"
	mRunsCompleted = "dsm_engine_runs_completed_total"
	mCacheHits     = "dsm_engine_cache_hits_total"
	mCacheWaits    = "dsm_engine_cache_wait_total"
	mInflight      = "dsm_engine_runs_inflight"
	mWorkers       = "dsm_engine_workers"
	mWorkerBusy    = "dsm_engine_worker_busy_seconds_total"
	mWorkerIdle    = "dsm_engine_worker_idle_seconds_total"
	mSimDispatches = "dsm_sim_dispatches_total"
	mSimDelivered  = "dsm_sim_messages_delivered_total"
	mSimPeakQueue  = "dsm_sim_peak_event_queue"

	mStoreHits      = "dsm_store_hits_total"
	mStoreMisses    = "dsm_store_misses_total"
	mStorePuts      = "dsm_store_puts_total"
	mStoreEvictions = "dsm_store_evictions_total"
	mStoreCorrupt   = "dsm_store_corrupt_frames_total"
	mStoreBytes     = "dsm_store_bytes"
	mStoreEntries   = "dsm_store_entries"
	mStoreOpenErrs  = "dsm_store_open_errors_total"
	mStoreSyncs     = "dsm_store_syncs_total"
	mStoreSyncSecs  = "dsm_store_sync_seconds"
	helpSyncSecs    = "Host wall time of one persistent-store fsync."
)

// Histogram bounds: run host time from 100µs to ~13s, alloc volume
// from 64KiB to ~16GiB. Shared by every (app, version) series of the
// family, so cross-series sums stay meaningful.
var (
	runSecondsBuckets = metrics.ExpBuckets(0.0001, 2, 18)
	allocBuckets      = metrics.ExpBuckets(65536, 4, 10)
	// fsync latency from 25µs to ~0.8s.
	syncSecondsBuckets = metrics.ExpBuckets(0.000025, 2, 16)
)

// telemetryInit registers the engine's metric families on e.Metrics,
// once. Func-backed families close over this engine's atomics, so one
// registry serves exactly one engine (a second registration of the
// same func family panics by design). The sim totals are process-wide.
func (e *Engine) telemetryInit() {
	r := e.Metrics
	if r == nil {
		return
	}
	e.telemetryOnce.Do(func() {
		iv := func(a *atomic.Int64) func() float64 {
			return func() float64 { return float64(a.Load()) }
		}
		secs := func(a *atomic.Int64) func() float64 {
			return func() float64 { return float64(a.Load()) / 1e9 }
		}
		r.CounterFunc(mRunsStarted, "Simulated runs started (cache misses).", iv(&e.host.runsStarted))
		r.CounterFunc(mRunsCompleted, "Simulated runs completed.", iv(&e.host.runsCompleted))
		r.CounterFunc(mCacheHits, "Run requests answered from the finished-result cache.", iv(&e.host.cacheHits))
		r.CounterFunc(mCacheWaits, "Run requests that waited on an in-flight duplicate.", iv(&e.host.cacheWaits))
		r.GaugeFunc(mInflight, "Simulated runs executing right now.", iv(&e.host.inflight))
		r.GaugeFunc(mWorkers, "Resolved sweep worker-pool width.",
			func() float64 { return float64(e.workers()) })
		r.CounterFunc(mWorkerBusy, "Sweep-pool worker time spent running simulations.", secs(&e.host.workerBusyNS))
		r.CounterFunc(mWorkerIdle, "Sweep-pool worker time spent waiting for work.", secs(&e.host.workerIdleNS))
		r.CounterFunc(mSimDispatches, "Simulator scheduler dispatches, process-wide.",
			func() float64 { return float64(sim.HostTotals().Dispatches) })
		r.CounterFunc(mSimDelivered, "Simulated messages delivered, process-wide.",
			func() float64 { return float64(sim.HostTotals().Delivered) })
		r.GaugeFunc(mSimPeakQueue, "Peak simulated-message queue depth over any run, process-wide.",
			func() float64 { return float64(sim.HostTotals().PeakQueue) })
		// Declare the histogram families eagerly so a scrape before the
		// first run already shows them (with no series yet).
		r.DeclareHistogram(mRunSeconds, helpRunSeconds, runSecondsBuckets)
		r.DeclareHistogram(mAllocBytes, helpAllocBytes, allocBuckets)
		if st := e.Store; st != nil {
			r.CounterFunc(mStoreHits, "Persistent-store reads served from disk.",
				func() float64 { return float64(st.Stats().Hits) })
			r.CounterFunc(mStoreMisses, "Persistent-store reads that found no entry.",
				func() float64 { return float64(st.Stats().Misses) })
			r.CounterFunc(mStorePuts, "Records written back to the persistent store.",
				func() float64 { return float64(st.Stats().Puts) })
			r.CounterFunc(mStoreEvictions, "Persistent-store entries evicted by the size cap.",
				func() float64 { return float64(st.Stats().Evictions) })
			r.CounterFunc(mStoreCorrupt, "Persistent-store frames skipped for failed checksums.",
				func() float64 { return float64(st.Stats().CorruptFrames) })
			r.GaugeFunc(mStoreBytes, "Persistent-store segment size in bytes.",
				func() float64 { return float64(st.SizeBytes()) })
			r.GaugeFunc(mStoreEntries, "Live entries in the persistent store.",
				func() float64 { return float64(st.Len()) })
			r.CounterFunc(mStoreOpenErrs, "Failed persistent-store opens, process-wide.",
				func() float64 { return float64(store.OpenErrors()) })
			r.CounterFunc(mStoreSyncs, "Persistent-store segment fsyncs (commit points and compactions).",
				func() float64 { return float64(st.Stats().Syncs) })
			r.DeclareHistogram(mStoreSyncSecs, helpSyncSecs, syncSecondsBuckets)
		}
	})
}

// observeSyncs feeds the store's fsyncs since the last call into the
// sync-latency histogram, which like the dsm_store_* counters covers
// the store handle's lifetime. The engine calls it after each of its
// own Put and Sync calls, so nearly every call sees zero or one new
// fsync and observes its exact duration; several at once (concurrent
// writers, a compaction next to a window sync) are each recorded at
// their mean.
func (e *Engine) observeSyncs() {
	r, st := e.Metrics, e.Store
	if r == nil || st == nil {
		return
	}
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	now := st.Stats()
	n := now.Syncs - e.syncSeen.Syncs
	if n <= 0 {
		return
	}
	mean := float64(now.SyncNanos-e.syncSeen.SyncNanos) / float64(n) / 1e9
	h := r.Histogram(mStoreSyncSecs, helpSyncSecs, syncSecondsBuckets)
	for ; n > 0; n-- {
		h.Observe(mean)
	}
	e.syncSeen = now
}

// observeRun records one executed run into the registry histograms.
func (e *Engine) observeRun(s Spec, hostNS int64, allocBytes uint64) {
	r := e.Metrics
	if r == nil {
		return
	}
	ls := []metrics.Label{metrics.L("app", s.App), metrics.L("version", string(s.Version))}
	r.Histogram(mRunSeconds, helpRunSeconds, runSecondsBuckets, ls...).Observe(float64(hostNS) / 1e9)
	r.Histogram(mAllocBytes, helpAllocBytes, allocBuckets, ls...).Observe(float64(allocBytes))
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
