package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
)

// Coordinator distributes a spec list across HTTP workers and merges
// their record streams into spec order, byte-identically to a local
// sweep. What it leases is runs, not specs: the list's exp.PlanRuns,
// each distinct execution once, so a label or a baseline is never
// simulated twice across the fleet; the merge relabels and joins
// through exp.Labelled, as exp.Engine does.
// Zero values get sane defaults; a Coordinator is good for one Run at a
// time, and each Run starts its accounting afresh.
type Coordinator struct {
	// Workers are worker base addresses (host:port or full URLs). An
	// empty or unreachable fleet degrades to local execution.
	Workers []string
	// RangeSize is the number of runs per lease; 0 means 4.
	RangeSize int
	// LeaseTimeout bounds one lease's wall time before the coordinator
	// abandons it and reassigns the range; 0 means 2 minutes.
	LeaseTimeout time.Duration
	// Speedup and Observe mirror exp.Engine.JoinSpeedup / Observe: the
	// merged records carry the baseline join and the bd_* fields a local
	// sweep's would.
	Speedup bool
	Observe bool
	// Engine is the local fallback engine; nil builds exp.New(). Its
	// Observe is forced to match Observe, and its JoinSpeedup to match
	// Speedup when no worker registers (the sweep then runs locally) and
	// to false while a fleet runs (the merge joins).
	Engine *exp.Engine
	// Metrics, when non-nil, is the telemetry map the coordinator sets
	// its "fabric" section (Snapshot) on; the local engine reports on it
	// too unless it has a map of its own.
	Metrics *expvar.Map
	// Logf, when non-nil, receives one line per fleet event (worker
	// registered/rejected/retired, lease expiry, local fallback).
	Logf func(format string, args ...any)

	mu      sync.Mutex
	start   time.Time
	workers []*workerState

	rangesTotal  int
	recordsTotal int64

	recordsDone   atomic.Int64
	recordsFailed atomic.Int64
	localRecords  atomic.Int64

	tbl *leaseTable
}

const (
	// maxAttempts caps remote attempts per range before it falls back to
	// local execution.
	maxAttempts = 3
	// maxWorkerFailures retires a worker after that many consecutive
	// failed leases.
	maxWorkerFailures = 3
)

// workerState is one registered worker's live accounting.
type workerState struct {
	addr string // normalized base URL

	leases   atomic.Int64
	records  atomic.Int64
	expiries atomic.Int64
	failures atomic.Int64
	inflight atomic.Int64
	retired  atomic.Bool

	consecFail int // touched only by the worker's own goroutine
}

func (c *Coordinator) rangeSize() int {
	if c.RangeSize > 0 {
		return c.RangeSize
	}
	return 4
}

func (c *Coordinator) leaseTimeout() time.Duration {
	if c.LeaseTimeout > 0 {
		return c.LeaseTimeout
	}
	return 2 * time.Minute
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// localEngine resolves the fallback engine with the coordinator's
// options applied; join is its JoinSpeedup.
func (c *Coordinator) localEngine(join bool) *exp.Engine {
	e := c.Engine
	if e == nil {
		e = exp.New()
		c.Engine = e
	}
	e.JoinSpeedup = join
	e.Observe = c.Observe
	if e.Metrics == nil {
		e.Metrics = c.Metrics
	}
	return e
}

// Run executes specs across the fleet and writes one JSON-lines record
// per spec to out, in spec order. The stats and joined error follow
// the same failure accounting as exp.Engine.StreamWith: run failures
// are error records counted in stats.Failed and joined into err, once
// per run, and a write failure aborts the merge. The bytes written are
// identical to a local sweep of the same specs, whatever the fleet does.
func (c *Coordinator) Run(out io.Writer, specs []exp.Spec) (exp.StreamStats, error) {
	// Nothing of an earlier Run carries over: its merge counters, its
	// lease table and its fleet.
	c.mu.Lock()
	c.start = time.Now()
	c.recordsTotal = int64(len(specs))
	c.rangesTotal, c.tbl, c.workers = 0, nil, nil
	c.recordsDone.Store(0)
	c.recordsFailed.Store(0)
	c.localRecords.Store(0)
	c.mu.Unlock()
	if c.Metrics != nil {
		c.Metrics.Set("fabric", expvar.Func(func() any { return c.Snapshot() }))
	}
	if len(specs) == 0 {
		return exp.StreamStats{}, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := c.handshake(ctx)
	if len(live) == 0 {
		c.logf("fabric: no workers registered; running the sweep locally")
		stats, err := c.localEngine(c.Speedup).StreamWith(out, specs, func(rec *exp.Record) {
			c.recordsDone.Add(1)
			c.localRecords.Add(1)
			if rec.Error != "" {
				c.recordsFailed.Add(1)
			}
		})
		return stats, err
	}

	// The fallback executes runs as leased, unjoined: the merge joins.
	eng := c.localEngine(false)
	rl := exp.PlanRuns(specs, c.Speedup)
	tbl := newLeaseTable(rl.Len(), c.rangeSize(), len(live))
	c.mu.Lock()
	c.rangesTotal = len(tbl.ranges)
	c.tbl = tbl
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, ws := range live {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			c.serveWorker(ctx, ws, tbl, rl)
		}(ws)
	}
	// The local executor picks up ranges the fleet cannot finish:
	// attempt-exhausted ranges, and everything once all workers retire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.serveLocal(eng, tbl, rl)
	}()

	// Merge: walk the requested specs in order, taking ranges of runs
	// in run order as they land. The run list is in first-need order, so
	// a spec waits for no range past the one holding its own run or
	// baseline. Each record is its run's, through exp.Labelled, as in
	// exp.Engine.
	var (
		stats  exp.StreamStats
		errs   []error
		failed = make([]bool, rl.Len())           // per run: its error is in errs, as StreamWith
		ran    = make([]*exp.Record, 0, rl.Len()) // each run's validated record, once its range is done
		rec    exp.Record
		line   []byte // reused; a record and its newline go out in one Write
	)
	for i, s := range specs {
		for need := max(rl.Run[i], rl.Base[i]); int32(len(ran)) <= need; {
			recs, ok := tbl.waitDoneAt(len(ran))
			if !ok {
				wg.Wait() // canceled — only the write-failure path below does that
				return stats, errors.Join(errs...)
			}
			for j := range recs {
				ran = append(ran, &recs[j])
			}
		}
		var base *exp.Record
		if b := rl.Base[i]; b >= 0 {
			base = ran[b]
		}
		rec = exp.Labelled(s, *ran[rl.Run[i]], base)
		if rec.Error != "" {
			stats.Failed++
			c.recordsFailed.Add(1)
			if pos := rl.Run[i]; !failed[pos] {
				failed[pos] = true
				errs = append(errs, errors.New(rec.Error))
			}
		}
		var werr error
		if line, werr = exp.AppendRecord(line[:0], &rec); werr == nil {
			line = append(line, '\n')
			_, werr = out.Write(line)
		}
		if werr != nil {
			tbl.cancel()
			cancel()
			wg.Wait()
			return stats, werr
		}
		stats.Records++
		c.recordsDone.Add(1)
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}

// handshake probes every configured worker address and registers the
// ones that answer /healthz with a matching schema version. An address
// listed twice (in any spelling normalizeAddr equates) is one worker:
// it has one row in Snapshot.
func (c *Coordinator) handshake(ctx context.Context) []*workerState {
	var live []*workerState
	seen := map[string]bool{}
	for _, addr := range c.Workers {
		base := normalizeAddr(addr)
		if base == "" {
			continue
		}
		if seen[base] {
			c.logf("fabric: worker %s listed more than once; registering it once", base)
			continue
		}
		seen[base] = true
		h, err := c.probe(ctx, base)
		switch {
		case err != nil:
			c.logf("fabric: worker %s not registered: %v", base, err)
		case !h.OK || h.SchemaVersion != exp.SchemaVersion:
			c.logf("fabric: worker %s rejected: schema_version %d, this build %d",
				base, h.SchemaVersion, exp.SchemaVersion)
		default:
			c.logf("fabric: worker %s registered (schema_version %d)", base, h.SchemaVersion)
			live = append(live, &workerState{addr: base})
		}
	}
	c.mu.Lock()
	c.workers = live
	c.mu.Unlock()
	return live
}

// probe performs one /healthz request.
func (c *Coordinator) probe(ctx context.Context, base string) (hello, error) {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, base+healthPath, nil)
	if err != nil {
		return hello{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return hello{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return hello{}, fmt.Errorf("healthz status %s", resp.Status)
	}
	var h hello
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return hello{}, fmt.Errorf("malformed healthz body: %v", err)
	}
	return h, nil
}

// serveWorker is one registered worker's dispatch loop: lease, run,
// deliver; on failure back off, and retire after too many consecutive
// failed leases.
func (c *Coordinator) serveWorker(ctx context.Context, ws *workerState, tbl *leaseTable, rl *exp.Runs) {
	for {
		g, ok := tbl.next(false)
		if !ok {
			return
		}
		r := g.r
		ws.leases.Add(1)
		ws.inflight.Add(1)
		recs, err := c.runRemote(ctx, ws, g, rl, r.lo, r.hi)
		ws.inflight.Add(-1)
		if err != nil {
			expired := errors.Is(err, context.DeadlineExceeded)
			if expired {
				ws.expiries.Add(1)
			} else {
				ws.failures.Add(1)
			}
			tbl.fail(g)
			ws.consecFail++
			c.logf("fabric: worker %s lease %s failed (expired=%v, consecutive %d): %v",
				ws.addr, leaseID(g), expired, ws.consecFail, err)
			if ws.consecFail >= maxWorkerFailures {
				ws.retired.Store(true)
				tbl.retireWorker()
				c.logf("fabric: worker %s retired after %d consecutive failures", ws.addr, ws.consecFail)
				return
			}
			// Exponential backoff before the next lease, context-aware.
			backoff := 100 * time.Millisecond << (ws.consecFail - 1)
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			continue
		}
		ws.consecFail = 0
		ws.records.Add(int64(len(recs)))
		tbl.deliver(g, recs)
	}
}

// leaseID names one grant for logs and the wire: run bounds plus the
// attempt ordinal.
func leaseID(g grant) string {
	return fmt.Sprintf("r%d-%d.%d", g.r.lo, g.r.hi, g.attempt)
}

// serveLocal is the fallback executor: it streams attempt-exhausted
// ranges (and, once no live workers remain, everything unfinished)
// through the local engine, as a worker streams a lease.
func (c *Coordinator) serveLocal(eng *exp.Engine, tbl *leaseTable, rl *exp.Runs) {
	for {
		g, ok := tbl.next(true)
		if !ok {
			return
		}
		r := g.r
		c.logf("fabric: running range r%d-%d (%d runs) locally", r.lo, r.hi, r.hi-r.lo)
		specs := make([]exp.Spec, 0, r.hi-r.lo)
		for pos := r.lo; pos < r.hi; pos++ {
			specs = append(specs, rl.Spec(pos))
		}
		recs := make([]exp.Record, 0, len(specs))
		// Run failures are error records; the merge reports them.
		eng.StreamWith(io.Discard, specs, func(rec *exp.Record) { recs = append(recs, *rec) }) //nolint:errcheck
		c.localRecords.Add(int64(len(recs)))
		tbl.deliver(g, recs)
	}
}

// runRemote executes one lease against one worker: POST the keys of
// runs [lo, hi) of rl, unjoined, validate the streamed records (strict
// schema, matching stamp, lease order), and strip the wire stamp so
// merged bytes equal local bytes. Short, over-long, misordered and malformed
// streams all fail the lease the same way.
func (c *Coordinator) runRemote(ctx context.Context, ws *workerState, g grant, rl *exp.Runs, lo, hi int) ([]exp.Record, error) {
	keys := make([]string, 0, hi-lo)
	for pos := lo; pos < hi; pos++ {
		keys = append(keys, rl.Key(pos))
	}
	body, err := json.Marshal(runRequest{
		SchemaVersion: exp.SchemaVersion,
		Lease:         leaseID(g),
		Observe:       c.Observe,
		Keys:          keys,
	})
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, c.leaseTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, ws.addr+runPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if rctx.Err() != nil {
			err = fmt.Errorf("%w: %v", context.DeadlineExceeded, err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("run status %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	recs := make([]exp.Record, 0, len(keys))
	sc := bufio.NewScanner(resp.Body)
	// A lease streams a few lines of a few hundred bytes: the scanner
	// starts at its default 4 KiB and grows on demand to the 1 MiB a
	// line may be, so a lease's buffer is proportional to its lines.
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := exp.ValidateLine(line)
		if err != nil {
			return nil, fmt.Errorf("record %d: %v", len(recs)+1, err)
		}
		if rec.SchemaVersion != exp.SchemaVersion {
			return nil, fmt.Errorf("record %d: missing or mismatched schema_version %d (want %d)",
				len(recs)+1, rec.SchemaVersion, exp.SchemaVersion)
		}
		if len(recs) >= len(keys) {
			return nil, fmt.Errorf("worker streamed more records than the %d leased runs", len(keys))
		}
		rec.SchemaVersion = 0 // strip the wire stamp: merged bytes == local bytes
		if rec.Spec != rl.Spec(lo+len(recs)) {
			return nil, fmt.Errorf("record %d is %s, want lease order %s",
				len(recs)+1, rec.Key(), keys[len(recs)])
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		if rctx.Err() != nil {
			err = fmt.Errorf("%w: %v", context.DeadlineExceeded, err)
		}
		return nil, fmt.Errorf("after %d of %d records: %v", len(recs), len(keys), err)
	}
	if len(recs) != len(keys) {
		err := fmt.Errorf("stream truncated at %d of %d records", len(recs), len(keys))
		if rctx.Err() != nil {
			err = fmt.Errorf("%w: %v", context.DeadlineExceeded, err)
		}
		return nil, err
	}
	return recs, nil
}
