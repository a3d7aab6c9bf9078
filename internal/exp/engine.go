package exp

import (
	"errors"
	"expvar"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
// cache, the store, the single-flight and every count of runs go by
// it, and the canonical spec is what executes. Specs that differ in
// labels only share one run; the record the engine hands back for each
// carries the spec that was asked for (Labelled).
type Engine struct {
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// JoinSpeedup joins every non-seq record the engine emits with its
	// sequential baseline (run and cached like any other spec), so the
	// JSON-lines stream carries seq_ns/seq_seconds/speedup and plots
	// need no post-join. A checksum that does not Agree with the
	// baseline's makes the record that disagreement's error record.
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

	// Metrics, when non-nil, is the telemetry map the engine reports
	// on: the "engine" section sums the HostStats of every engine on
	// the map, and per-(app, version) host-time and alloc-volume
	// histograms sit beside it (see telemetry.go). Engines sharing a map
	// must share one Store too (the "store" section reports the first
	// engine's), and an engine stays reachable from its map. Telemetry
	// is strictly host-side: virtual times, traffic and sweep output
	// bytes are identical with or without it.
	Metrics *expvar.Map

	// Store, when non-nil, is the persistent record cache underneath
	// the in-memory result cache, one entry per run: the record paths
	// (StreamWith) serve a stored run byte-identically
	// without simulating it, and every run that executes and succeeds is
	// written back once, under the run's own key — the labels that share
	// it go back on as its records leave. The Result path (Run) always
	// executes — a Record does not carry enough to rebuild a
	// core.Result — but still writes back, so a single run warms the
	// store too. Set it before the first run and do not change it after.
	Store *store.Store

	// mu/cache single-flight executed runs: the first request for a run
	// executes it, everyone else waits for (or receives) its entry. It
	// is the engine's one cache; a stored run is read when its line is
	// written, once per stream, and kept nowhere.
	mu    sync.Mutex
	cache map[string]*entry

	host          hostStats
	telemetryOnce sync.Once
	rep           *reporting // Metrics's engine section, this engine included
}

// entry is one cached (possibly in-flight) run. done closes when res,
// err, rec and hostNS are final. rec is RecordOf the run's canonical
// spec, built once: the write-back stores it and every stream writes it.
type entry struct {
	done   chan struct{}
	res    core.Result
	err    error
	rec    Record
	hostNS int64
}

// New builds an engine.
func New() *Engine {
	return &Engine{}
}

// Config resolves the concrete run configuration for a spec: the
// application's sizing for (scale, procs) plus the calibrated SP/2
// model with the spec's contention knobs applied. The calibration is
// fixed, so the identity of a run is the spec alone.
func (e *Engine) Config(a core.App, s Spec) core.Config {
	cfg := a.Config(s.Scale, s.Procs)
	cfg.Costs = model.SP2().WithContention(s.Contention)
	cfg.App = model.DefaultAppCosts()
	cfg.Protocol = s.Protocol
	cfg.HomePolicy = s.HomePolicy
	return cfg
}

// Run executes one spec, deduplicating concurrent and repeated
// requests: the first caller for a run runs the simulation, everyone
// else waits for (or immediately receives) its result.
func (e *Engine) Run(s Spec) (core.Result, error) {
	en := e.run(keyOf(s.Canonical()), e.lookup())
	return en.res, en.err
}

// run is Run for a canonical spec whose key the caller holds. It
// returns the cache entry, final, rather than a copy of its core.Result
// (3 KB). The request that executes the run resolves its application
// through lookup and writes the run back.
func (e *Engine) run(k keyed, lookup func(name string) (core.App, error)) *entry {
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
		var alloc0 uint64
		if e.rep != nil {
			alloc0 = heapAllocBytes()
		}
		start := time.Now()
		en.res, en.err = e.execute(k.Spec, lookup)
		en.hostNS = time.Since(start).Nanoseconds()
		en.rec = RecordOf(k.Spec, en.res, en.err)
		e.host.inflight.Add(-1)
		if en.err != nil {
			e.host.runsFailed.Add(1)
		}
		e.host.runsCompleted.Add(1)
		if e.rep != nil {
			e.observeRun(k.Spec, en.hostNS, heapAllocBytes()-alloc0)
		}
		close(en.done)
		e.writeBack(k, en)
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
	b, merr := AppendRecord(make([]byte, 0, 512), &en.rec)
	if merr != nil {
		return
	}
	st.Put(k.storeKey(e.Observe), b) //nolint:errcheck // best-effort persistence
}

// syncStore is the engine's commit point: one fsync covering every
// record written back since the last one (none on a warm pass). Put
// defers durability to here, so each sweep and each fabric lease ends
// with its records safe against power loss before the caller reports
// on it. StreamWith defers it past its prefetch, whose runs write
// back.
func (e *Engine) syncStore() {
	if st := e.Store; st != nil {
		st.Sync() //nolint:errcheck // best-effort persistence, as in writeBack
	}
}

// execute performs the simulation for one spec (no caching). A result
// that does not agree with itself — is not a number (Agree) — is a
// failed run, here and so everywhere: JSON cannot carry the value, and
// no table may divide by it. A run that panics is a failed run too:
// sim.Run re-raises a process body's panic here, and its value becomes
// the error, so one broken spec is one error record, not a dead sweep.
// lookup resolves the application: Lookup's default, or a stream's memo.
func (e *Engine) execute(s Spec, lookup func(name string) (core.App, error)) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = core.Result{}, fmt.Errorf("%s/%s: panic: %v", s.App, s.Version, r)
		}
	}()
	if err := s.Validate(); err != nil {
		return core.Result{}, err
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
	if res, err = a.Run(s.Version, cfg); err != nil {
		return core.Result{}, fmt.Errorf("%s/%s: %w", s.App, s.Version, err)
	}
	rec := Record{Spec: s, Checksum: res.Checksum}
	if err := Agree(rec, rec); err != nil {
		return core.Result{}, err
	}
	return res, nil
}

// lookup resolves the Lookup default.
func (e *Engine) lookup() func(name string) (core.App, error) {
	if e.Lookup != nil {
		return e.Lookup
	}
	return AppByName
}

// appMemo resolves application names for one stream: each name is
// looked up once, by its first run, and every other run of the stream
// that names it shares the core.App. A gen-<seed> name is a program
// generated and compiled per lookup, and a sweep names it once per
// version and processor count. The memo lives as long as its stream,
// so it holds at most the names of one spec list. An App is run
// concurrently by the stream's workers, as every registry App is.
type appMemo struct {
	lookup func(name string) (core.App, error)
	mu     sync.Mutex
	apps   map[string]*memoApp
}

type memoApp struct {
	once sync.Once
	app  core.App
	err  error
}

func (m *appMemo) get(name string) (core.App, error) {
	m.mu.Lock()
	a := m.apps[name]
	if a == nil {
		if m.apps == nil { // a warm stream executes nothing and makes none
			m.apps = map[string]*memoApp{}
		}
		a = new(memoApp)
		m.apps[name] = a
	}
	m.mu.Unlock()
	a.once.Do(func() { a.app, a.err = m.lookup(name) })
	return a.app, a.err
}

// workers resolves the pool width.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// prefetch resolves every run of r, each once, using the worker pool,
// and counts each in RunsResolved. It returns when all runs have
// completed (or failed). Once cancel is set no new run starts
// (in-flight runs still finish), and the runs skipped stay unresolved.
func (e *Engine) prefetch(r *stream, cancel *atomic.Bool) {
	w := min(e.workers(), r.Len())
	if w <= 1 {
		for pos := range r.runs {
			if cancel.Load() {
				return
			}
			busy := time.Now()
			e.resolve(r, pos)
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
				if !cancel.Load() { // else drain without running
					e.resolve(r, pos)
				}
				e.host.workerBusyNS.Add(time.Since(busy).Nanoseconds())
				idle = time.Now()
			}
			e.host.workerIdleNS.Add(time.Since(idle).Nanoseconds())
		}()
	}
	for pos := range r.runs {
		jobs <- pos
	}
	close(jobs)
	wg.Wait()
}

// resolve settles r's run at pos without reading its record, and
// counts it: a run this engine has executed (or is executing) is its
// cache entry, a run the store indexes is left for the emitter to read
// (nil), and any other run executes.
func (e *Engine) resolve(r *stream, pos int) {
	k := r.runs[pos]
	var en *entry
	if st := e.Store; st == nil || e.ran(k) || !st.Has(k.storeKey(e.Observe)) {
		en = e.run(k, r.apps.get)
	}
	r.resolved(pos, en)
	e.host.runsResolved.Add(1)
}

// ran reports whether this engine has executed, or is executing, run k.
func (e *Engine) ran(k keyed) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache[k.key()] != nil
}

// keyed is a spec with its key, taken once. PlanRuns takes each run's
// key and hands it down — to the run cache and the store —
// instead of rebuilding the string at any of them. The store key of an
// observed record is built in the same string: the key is its prefix.
type keyed struct {
	Spec
	obsKey string // Key() + storeObserveSuffix
}

func keyOf(s Spec) keyed {
	var buf [128 + len(storeObserveSuffix)]byte
	return keyed{s, string(append(s.appendKey(buf[:0]), storeObserveSuffix...))}
}

// key is the spec's Key.
func (k keyed) key() string { return k.obsKey[:len(k.obsKey)-len(storeObserveSuffix)] }

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

// stream is one StreamWith's state of its runs: the prefetch resolves
// each run and the emitter, writing the lines in spec order, waits for
// each run it needs.
type stream struct {
	*Runs
	mu    sync.Mutex
	cond  sync.Cond
	slots []runSlot
	apps  appMemo
}

// runSlot is one run in a stream. The prefetch sets resolved and en
// under the stream's lock, once; the other fields are the emitter's.
type runSlot struct {
	resolved bool
	read     bool    // the stored record was decoded; ns, sum, digest and wsum are its own
	uses     int32   // requested specs still to be written from the run's record
	en       *entry  // the run's cache entry; nil for a run the store holds
	ns       int64   // a stored run's time_ns, for the baseline join
	sum      float64 // a stored run's checksum, for the baseline join
	digest   uint64  // a stored run's digest, for the baseline join
	wsum     float64 // a stored run's wsum, for the baseline join
	rec      *Record // a stored run's record, while a later label needs it
}

func newStream(p *Runs, lookup func(name string) (core.App, error)) *stream {
	r := &stream{Runs: p, slots: make([]runSlot, p.Len()), apps: appMemo{lookup: lookup}}
	r.cond.L = &r.mu
	for _, pos := range p.Run {
		r.slots[pos].uses++
	}
	return r
}

// resolved records the prefetch's answer for the run at pos.
func (r *stream) resolved(pos int, en *entry) {
	r.mu.Lock()
	r.slots[pos].en, r.slots[pos].resolved = en, true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// wait blocks until the prefetch has resolved the run at pos.
func (r *stream) wait(pos int32) *runSlot {
	r.mu.Lock()
	for !r.slots[pos].resolved {
		r.cond.Wait()
	}
	r.mu.Unlock()
	return &r.slots[pos]
}

// record sets *rec to the record of the run at pos: an executed run's
// from its cache entry, a stored run's read through buf and decoded
// here (load).
func (e *Engine) record(r *stream, pos int32, rec *Record, buf *[]byte) {
	sl := r.wait(pos)
	sl.uses--
	switch {
	case sl.en != nil:
		*rec = sl.en.rec
	case sl.rec != nil:
		*rec = *sl.rec
		if sl.uses == 0 {
			sl.rec = nil
		}
	default:
		e.load(r, pos, rec, buf)
	}
}

// baseline is the record of the baseline run at pos, as far as the
// join reads it: spec, time_ns, checksum, digest, wsum and error.
func (e *Engine) baseline(r *stream, pos int32, buf *[]byte) Record {
	sl := r.wait(pos)
	if sl.en == nil && !sl.read {
		var rec Record
		e.load(r, pos, &rec, buf)
	}
	if sl.en != nil {
		return sl.en.rec
	}
	return Record{Spec: r.runs[pos].Spec, TimeNanos: sl.ns, Checksum: sl.sum, Digest: sl.digest, WSum: sl.wsum}
}

// load sets *rec to the stored record of the run at pos, read once a
// stream: a label still to come keeps the decoded record. A stored
// record that fails its read or its checks is executed instead, and the
// write-back heals the store.
func (e *Engine) load(r *stream, pos int32, rec *Record, buf *[]byte) {
	sl := &r.slots[pos]
	if !e.readStored(r.runs[pos], sl, rec, buf) {
		sl.en = e.run(r.runs[pos], r.apps.get)
		*rec = sl.en.rec
	} else if sl.uses > 0 {
		kept := *rec
		sl.rec = &kept
	}
}

// readStored reads run k's stored record into buf and decodes it into
// *rec, counting a store hit; false if the read or a check fails.
func (e *Engine) readStored(k keyed, sl *runSlot, rec *Record, buf *[]byte) bool {
	var ok bool
	if *buf, ok = e.Store.AppendGet((*buf)[:0], k.storeKey(e.Observe)); !ok {
		return false
	}
	dec, err := CheckStored(k.storeKey(e.Observe), *buf)
	if err != nil {
		return false
	}
	*rec = dec
	sl.read, sl.ns, sl.sum, sl.digest, sl.wsum = true, dec.TimeNanos, dec.Checksum, dec.Digest, dec.WSum
	e.host.storeHits.Add(1)
	return true
}

// labelled sets *rec to the record of r's requested spec i, s: its
// run's record, relabelled and joined with its baseline — Labelled, in
// place. buf is the emitter's read buffer.
func (e *Engine) labelled(r *stream, i int, s Spec, rec *Record, buf *[]byte) {
	e.record(r, r.Run[i], rec, buf)
	rec.Spec = s
	if b := r.Base[i]; b >= 0 && rec.Error == "" {
		base := e.baseline(r, b, buf)
		rec.join(&base)
	}
}

// StreamStats is the failure accounting of one streamed spec list: how
// many records were emitted and how many of them carried a run error.
// dsmrun's sweep exit status and the fabric coordinator's merge both
// report from it, so local and distributed sweeps fail identically.
type StreamStats struct {
	Records int
	Failed  int
}

// StreamWith executes every spec across the worker pool and writes one
// JSON-lines record per spec to w, in spec order, emitting each record
// as soon as it and all its predecessors have finished. With
// JoinSpeedup set, every non-seq record is joined with its sequential
// baseline (prefetched alongside the specs). Run failures become error
// records (and are joined into the returned error, once per run); a
// write failure aborts the stream, cancelling the runs not yet started.
// decorate, when non-nil, is applied to each record immediately before
// encoding (the fabric worker stamps SchemaVersion there), and the
// returned stats count emitted and failed records. The hook must not
// change spec identity fields — the record's bytes are the sweep's
// contract.
func (e *Engine) StreamWith(w io.Writer, specs []Spec, decorate func(*Record)) (StreamStats, error) {
	p := newStream(PlanRuns(specs, e.JoinSpeedup), e.lookup())
	e.telemetryInit()
	e.host.runsPlanned.Add(int64(p.Len()))
	defer e.syncStore() // after every return below has waited for the prefetch
	var cancel atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.prefetch(p, &cancel)
	}()
	var (
		stats  StreamStats
		errs   []error
		failed = make([]bool, p.Len()) // per run: its error is in errs
		// One Record and one line buffer for the whole stream: decorate
		// takes the record's address, which puts it on the heap — once,
		// not once per line. The line buffer is also the emitter's store
		// read buffer: a record owns its strings, so its line is encoded
		// after the bytes it was decoded from are dead.
		rec  Record
		line []byte
	)
	for i, s := range specs {
		e.labelled(p, i, s, &rec, &line) // blocks until this spec's runs are resolved
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
