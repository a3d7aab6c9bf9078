package exp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
)

// Engine executes specs against one machine calibration, fanning
// independent simulations out across host cores behind a shared,
// concurrency-safe result cache. Each simulated run is internally
// deterministic (virtual time, one sim process at a time) and shares
// no mutable state with other runs, so host-level parallelism cannot
// perturb results: a sweep's output is bit-identical at any worker
// count.
//
// A run's identity is its spec's canonical form (Spec.Canonical): the
// caches, the store, the single-flight and every count of runs go by
// it, and the canonical spec is what executes. Specs that differ in
// labels only share one run; the record the engine hands back for each
// carries the spec that was asked for (Labelled).
type Engine struct {
	// Costs is the interconnect/protocol calibration. Its contention
	// knobs are overridden per spec (Spec.Contention), so the identity
	// of a run is the spec alone.
	Costs model.Costs
	// App is the per-application compute calibration.
	App model.AppCosts
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// JoinSpeedup joins every non-seq record the engine emits with its
	// sequential baseline (run and cached like any other spec), so the
	// JSON-lines stream carries seq_ns/seq_seconds/speedup and plots
	// need no post-join.
	JoinSpeedup bool
	// Observe gives every run its own obs.Trace, attaching the per-node
	// time breakdown (and the trace itself) to each core.Result and the
	// bd_* fields to each record. Off by default: observability never
	// changes virtual times or traffic, but the default keeps sweep
	// output byte-identical with earlier releases.
	Observe bool
	// Lookup resolves application names; nil means the built-in
	// registry (AppByName).
	Lookup func(name string) (core.App, error)

	// Metrics, when non-nil, exposes the engine's host-side telemetry
	// on that registry: func-backed counters/gauges over the always-on
	// HostStats atomics plus per-(app, version) host-time and
	// alloc-volume histograms (see telemetry.go). Engines sharing a
	// registry report their sums; they must share one Store too (the
	// store families report the first engine's), and an engine on a
	// registry stays reachable from it for the life of the process.
	// Telemetry is strictly host-side: virtual times, traffic and sweep
	// output bytes are identical with or without it.
	Metrics *metrics.Registry
	// OnRunDone, when non-nil, is called once per executed run (cache
	// misses only, after the result is final) with the spec that ran
	// (canonical), the host wall time, and the run error. Called from
	// worker goroutines; the callback must be concurrency-safe.
	// Progress.RunDone fits here.
	OnRunDone func(s Spec, hostNS int64, err error)

	// Store, when non-nil, is the persistent record cache underneath
	// the in-memory result cache, one entry per run: the record paths
	// (Stream, StreamWith) serve a stored run byte-identically
	// without simulating it, and every run that executes and succeeds is
	// written back once, under the run's own key — the labels that share
	// it go back on as its records leave. The Result paths (Run, Sweep)
	// always execute — a Record does not carry enough to rebuild a
	// core.Result — but still write back, so harness runs warm the store
	// too. Set it before the first run and do not change it after.
	Store *store.Store
	// OnStoreHit, when non-nil, is called once per run served from
	// Store (record paths only), with the run's canonical spec. Called
	// from worker goroutines; must be concurrency-safe. Progress.StoreHit
	// fits here.
	OnStoreHit func(s Spec)

	mu    sync.Mutex
	cache map[string]*entry

	// recMu/recCache single-flight the record paths the way mu/cache
	// single-flight Run: at most one store lookup (and, on a miss, one
	// run + write-back) per run, everyone else waits for its record.
	recMu    sync.Mutex
	recCache map[string]*recEntry

	host          hostStats
	telemetryOnce sync.Once
	rep           *reporting // the engines reporting on Metrics, this one included
}

// entry is one cached (possibly in-flight) run. done closes when res,
// err and hostNS are final.
type entry struct {
	done   chan struct{}
	res    core.Result
	err    error
	hostNS int64
}

// recEntry is one cached (possibly in-flight) record: rec is final once
// wg is done. Waiters only block, never select, so the entry waits on a
// WaitGroup inside its own allocation rather than on a channel.
type recEntry struct {
	wg  sync.WaitGroup
	rec Record
}

// New builds an engine with the calibrated SP/2 model.
func New() *Engine {
	return NewEngine(model.SP2(), model.DefaultAppCosts())
}

// NewEngine builds an engine with an explicit calibration.
func NewEngine(costs model.Costs, app model.AppCosts) *Engine {
	return &Engine{Costs: costs, App: app}
}

// Config resolves the concrete run configuration for a spec: the
// application's sizing for (scale, procs) plus the engine calibration
// with the spec's contention knobs applied.
func (e *Engine) Config(a core.App, s Spec) core.Config {
	cfg := a.Config(s.Scale, s.Procs)
	cfg.Costs = e.Costs.WithContention(s.Contention)
	cfg.App = e.App
	cfg.Protocol = s.Protocol
	cfg.HomePolicy = s.HomePolicy
	return cfg
}

// Run executes one spec, deduplicating concurrent and repeated
// requests: the first caller for a run runs the simulation, everyone
// else waits for (or immediately receives) its result.
func (e *Engine) Run(s Spec) (core.Result, error) {
	en := e.run(keyOf(s.Canonical()))
	return en.res, en.err
}

// run is Run for a canonical spec whose key the caller holds. It
// returns the cache entry, final, rather than a copy of its core.Result
// (3 KB). The request that executes the run writes it back.
func (e *Engine) run(k keyed) *entry {
	e.telemetryInit()
	e.mu.Lock()
	if e.cache == nil {
		e.cache = map[string]*entry{}
	}
	en, ok := e.cache[k.key()]
	if !ok {
		en = &entry{done: make(chan struct{})}
		e.cache[k.key()] = en
		e.mu.Unlock()
		e.host.runsStarted.Add(1)
		e.host.inflight.Add(1)
		alloc0 := heapAllocBytes()
		start := time.Now()
		en.res, en.err = e.execute(k.Spec)
		en.hostNS = time.Since(start).Nanoseconds()
		allocDelta := heapAllocBytes() - alloc0
		e.host.inflight.Add(-1)
		e.host.runsCompleted.Add(1)
		e.observeRun(k.Spec, en.hostNS, allocDelta)
		close(en.done)
		e.writeBack(k, en)
		if f := e.OnRunDone; f != nil {
			f(k.Spec, en.hostNS, en.err)
		}
	} else {
		e.mu.Unlock()
		// Classify the duplicate: a closed done channel is a plain cache
		// hit; an open one means we latched onto an in-flight run.
		select {
		case <-en.done:
			e.host.cacheHits.Add(1)
		default:
			e.host.cacheWaits.Add(1)
			<-en.done
		}
	}
	return en
}

// HostRunNanos returns the host wall time of the spec's execution, or
// 0 if the spec has not finished running on this engine. Informational
// only — host time is machine- and load-dependent, never a gated
// result field.
func (e *Engine) HostRunNanos(s Spec) int64 {
	e.mu.Lock()
	en := e.cache[s.Canonical().Key()]
	e.mu.Unlock()
	if en == nil {
		return 0
	}
	select {
	case <-en.done:
		return en.hostNS
	default:
		return 0
	}
}

// writeBack persists the record of one executed run under the run's
// store key: a stored value is its key's exact bytes, and the key is
// the run's. Error records are never stored: a deterministic failure
// re-executes (and fails identically) on every run, so storing it buys
// nothing and a transient failure must not become permanent. Store
// errors are swallowed — the store is an accelerator, never a
// correctness dependency; its counters record the failure.
func (e *Engine) writeBack(k keyed, en *entry) {
	st := e.Store
	if st == nil || en.err != nil {
		return
	}
	rec := RecordOf(k.Spec, en.res, nil)
	b, merr := AppendRecord(make([]byte, 0, 512), &rec)
	if merr != nil {
		return
	}
	st.Put(k.storeKey(e.Observe), b) //nolint:errcheck // best-effort persistence
	e.observeSyncs()
}

// syncStore is the engine's commit point: one fsync covering every
// record written back since the last one (none on a warm pass). Put
// defers durability to here, so each sweep and each fabric lease ends
// with its records safe against power loss before the caller reports
// on it. Sweep and StreamWith defer it past their prefetch, whose runs
// write back.
func (e *Engine) syncStore() {
	if st := e.Store; st != nil {
		st.Sync() //nolint:errcheck // best-effort persistence, as in writeBack
		e.observeSyncs()
	}
}

// recordFor returns the record of one canonical run, single-flighted
// per run: served from the persistent store when possible, executed
// (and written back) otherwise. It never relabels or joins — Labelled
// does that on the way out.
func (e *Engine) recordFor(k keyed) Record {
	e.telemetryInit()
	e.recMu.Lock()
	if e.recCache == nil {
		e.recCache = map[string]*recEntry{}
	}
	en, ok := e.recCache[k.key()]
	if !ok {
		en = &recEntry{}
		en.wg.Add(1)
		e.recCache[k.key()] = en
		e.recMu.Unlock()
		en.rec = e.computeRecord(k)
		en.wg.Done()
		return en.rec
	}
	e.recMu.Unlock()
	en.wg.Wait()
	return en.rec
}

// computeRecord resolves one run's record: persistent store first,
// then a real run. A stored entry that fails validation (corrupt,
// tampered, schema drift) is treated as a miss and recomputed; the
// write-back then heals the store.
func (e *Engine) computeRecord(k keyed) Record {
	if st := e.Store; st != nil {
		if b, ok := st.Get(k.storeKey(e.Observe)); ok {
			if rec, err := decodeStored(b, k.Spec); err == nil {
				e.host.storeHits.Add(1)
				if f := e.OnStoreHit; f != nil {
					f(k.Spec)
				}
				return rec
			}
		}
	}
	en := e.run(k)
	return RecordOf(k.Spec, en.res, en.err)
}

// execute performs the simulation for one spec (no caching). A result
// that is not a number is a failed run, here and so everywhere: JSON
// cannot carry the value, and no table may divide by it.
func (e *Engine) execute(s Spec) (core.Result, error) {
	if err := s.Validate(); err != nil {
		return core.Result{}, err
	}
	lookup := e.Lookup
	if lookup == nil {
		lookup = AppByName
	}
	a, err := lookup(s.App)
	if err != nil {
		return core.Result{}, err
	}
	cfg := e.Config(a, s)
	if e.Observe {
		// Per run, not per engine: the trace buffer is single-run state
		// and concurrent sweep workers must not share one.
		cfg.Costs.Trace = obs.New()
	}
	res, err := a.Run(s.Version, cfg)
	if err != nil {
		return core.Result{}, fmt.Errorf("%s/%s: %w", s.App, s.Version, err)
	}
	if math.IsNaN(res.Checksum) || math.IsInf(res.Checksum, 0) {
		return core.Result{}, fmt.Errorf("%s/%s: non-finite checksum", s.App, s.Version)
	}
	return res, nil
}

// CachedKeys lists completed or in-flight run keys — canonical, one per
// execution — in sorted order.
func (e *Engine) CachedKeys() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.cache))
	for k := range e.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// workers resolves the pool width.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// prefetch resolves every run of p, each once, using the worker pool —
// through Engine.run for the Result paths, recordFor for the record
// paths, so store hits skip the simulation. It returns when all runs
// have completed (or failed). A non-nil cancel flag stops new runs from
// starting (in-flight runs still finish).
func (e *Engine) prefetch(p *Runs, cancel *atomic.Bool, resolve func(keyed)) {
	canceled := func() bool { return cancel != nil && cancel.Load() }
	w := min(e.workers(), p.Len())
	if w <= 1 {
		for _, k := range p.runs {
			if canceled() {
				return
			}
			busy := time.Now()
			resolve(k)
			e.host.workerBusyNS.Add(time.Since(busy).Nanoseconds())
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idle := time.Now()
			for pos := range jobs {
				e.host.workerIdleNS.Add(time.Since(idle).Nanoseconds())
				busy := time.Now()
				if !canceled() { // else drain without running
					resolve(p.runs[pos])
				}
				e.host.workerBusyNS.Add(time.Since(busy).Nanoseconds())
				idle = time.Now()
			}
			e.host.workerIdleNS.Add(time.Since(idle).Nanoseconds())
		}()
	}
	for pos := range p.runs {
		jobs <- pos
	}
	close(jobs)
	wg.Wait()
}

// keyed is a spec with its key, taken once. PlanRuns takes each run's
// key and hands it down — to the run and record caches and the store —
// instead of rebuilding the string at any of them. The store key of an
// observed record is built in the same string: the key is its prefix.
type keyed struct {
	Spec
	obsKey string // Key() + StoreObserveSuffix
}

func keyOf(s Spec) keyed {
	var buf [128 + len(StoreObserveSuffix)]byte
	return keyed{s, string(append(s.appendKey(buf[:0]), StoreObserveSuffix...))}
}

// key is the spec's Key.
func (k keyed) key() string { return k.obsKey[:len(k.obsKey)-len(StoreObserveSuffix)] }

// storeKey is StoreKey of the spec.
func (k keyed) storeKey(observed bool) string {
	if observed {
		return k.obsKey
	}
	return k.key()
}

// Runs is what a spec list costs: each distinct run it needs — every
// spec's Canonical() and, under the baseline join, each non-seq spec's
// SeqSpecOf baseline — once, in first-need order (a spec's baseline,
// then its run), with every requested spec's positions in it. The
// engine's prefetch and the fabric coordinator's leases walk the runs;
// each requested spec's record is its run's, relabelled (Labelled).
type Runs struct {
	Run  []int32 // per requested spec, its run's position
	Base []int32 // per requested spec, its baseline's position; -1 for no join
	runs []keyed
}

// PlanRuns resolves specs to their runs, joining each non-seq spec with
// its sequential baseline when join is set.
func PlanRuns(specs []Spec, join bool) *Runs {
	r := &Runs{
		Run:  make([]int32, len(specs)),
		Base: make([]int32, len(specs)),
		runs: make([]keyed, 0, len(specs)),
	}
	index := make(map[string]int32, len(specs)) // a run's position by key
	add := func(s Spec) int32 {
		var buf [128]byte
		if pos, ok := index[string(s.appendKey(buf[:0]))]; ok {
			return pos // a repeat builds no key string
		}
		k := keyOf(s)
		pos := int32(len(r.runs))
		index[k.key()] = pos
		r.runs = append(r.runs, k)
		return pos
	}
	for i, s := range specs {
		r.Base[i] = -1
		if join && s.Version != core.Seq {
			r.Base[i] = add(SeqSpecOf(s))
		}
		r.Run[i] = add(s.Canonical())
	}
	return r
}

// Len is the number of runs.
func (r *Runs) Len() int { return len(r.runs) }

// Spec is the canonical spec of the run at pos.
func (r *Runs) Spec(pos int) Spec { return r.runs[pos].Spec }

// Key is the key of the run at pos.
func (r *Runs) Key(pos int) string { return r.runs[pos].key() }

// Sweep executes every spec across the worker pool and returns results
// in spec order. The returned error joins every distinct run failure
// (in spec order), once per run however many labels name it; results
// at failed positions are zero.
func (e *Engine) Sweep(specs []Spec) ([]core.Result, error) {
	p := PlanRuns(specs, false)
	defer e.syncStore()
	e.prefetch(p, nil, func(k keyed) { e.run(k) }) // errors surface on the ordered pass
	out := make([]core.Result, len(specs))
	var errs []error
	failed := make([]bool, p.Len()) // per run: its error is in errs
	for i, pos := range p.Run {
		en := e.run(p.runs[pos]) // cache hit: prefetch completed every run
		out[i] = en.res
		if en.err != nil && !failed[pos] {
			failed[pos] = true
			errs = append(errs, en.err)
		}
	}
	return out, errors.Join(errs...)
}

// labelled is the record of p's requested spec i, s: its run's record,
// relabelled and joined with its baseline's when the run succeeded.
func (e *Engine) labelled(p *Runs, i int, s Spec) Record {
	rec := e.recordFor(p.runs[p.Run[i]])
	if b := p.Base[i]; b >= 0 && rec.Error == "" {
		seq := e.recordFor(p.runs[b])
		return Labelled(s, rec, &seq)
	}
	return Labelled(s, rec, nil)
}

// StreamStats is the failure accounting of one streamed spec list: how
// many records were emitted and how many of them carried a run error.
// dsmrun's sweep exit status and the fabric coordinator's merge both
// report from it, so local and distributed sweeps fail identically.
type StreamStats struct {
	Records int
	Failed  int
}

// Stream executes every spec across the worker pool and writes one
// JSON-lines record per spec to w, in spec order, emitting each record
// as soon as it and all its predecessors have finished. With
// JoinSpeedup set, every non-seq record is joined with its sequential
// baseline (prefetched alongside the specs). Run failures become error
// records (and are joined into the returned error, once per run); a
// write failure aborts the stream, cancelling the runs not yet started.
func (e *Engine) Stream(w io.Writer, specs []Spec) error {
	_, err := e.StreamWith(w, specs, nil)
	return err
}

// StreamWith is Stream with a range-execution hook: decorate, when
// non-nil, is applied to each record immediately before encoding (the
// fabric worker stamps SchemaVersion there), and the returned stats
// count emitted and failed records. The hook must not change spec
// identity fields — the record's bytes are the sweep's contract.
func (e *Engine) StreamWith(w io.Writer, specs []Spec, decorate func(*Record)) (StreamStats, error) {
	p := PlanRuns(specs, e.JoinSpeedup)
	defer e.syncStore() // after every return below has waited for the prefetch
	var cancel atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.prefetch(p, &cancel, func(k keyed) { e.recordFor(k) })
	}()
	var (
		stats  StreamStats
		errs   []error
		failed = make([]bool, p.Len()) // per run: its error is in errs
		// One Record and one line buffer for the whole stream: decorate
		// takes the record's address, which puts it on the heap — once,
		// not once per line.
		rec  Record
		line []byte
	)
	for i, s := range specs {
		rec = e.labelled(p, i, s) // blocks until this spec's runs are final
		if rec.Error != "" {
			stats.Failed++
			if pos := p.Run[i]; !failed[pos] {
				failed[pos] = true
				errs = append(errs, errors.New(rec.Error))
			}
		}
		if decorate != nil {
			decorate(&rec)
		}
		var werr error
		if line, werr = AppendRecord(line[:0], &rec); werr == nil {
			// The record and its newline in one Write: a writer that
			// flushes per Write flushes per record, and a stream cut
			// short ends on a record boundary.
			line = append(line, '\n')
			_, werr = w.Write(line)
		}
		if werr != nil {
			cancel.Store(true)
			<-done
			return stats, werr
		}
		stats.Records++
	}
	<-done
	return stats, errors.Join(errs...)
}
