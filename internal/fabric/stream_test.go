package fabric

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/store"
)

// stubWorker is a worker that simulates nothing: it answers /run with
// the stamped lines it was given, by spec key, so a coordinator run
// against it costs the fabric's own work only.
func stubWorker(t *testing.T, lines map[string][]byte) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(healthPath, func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(hello{OK: true, SchemaVersion: exp.SchemaVersion}) //nolint:errcheck // test server
	})
	mux.HandleFunc(runPath, func(w http.ResponseWriter, r *http.Request) {
		var rr runRequest
		if err := json.NewDecoder(r.Body).Decode(&rr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, key := range rr.Keys {
			w.Write(lines[key]) //nolint:errcheck // test server
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// rendered builds a record for each spec without running anything and
// returns the wire lines a worker would stream (stamped, by spec key)
// and the stream a local sweep would write (unstamped, in order).
// errText, when set, makes the first record a failed run's.
func rendered(t *testing.T, specs []exp.Spec, errText string) (wire map[string][]byte, merged []byte) {
	t.Helper()
	wire = map[string][]byte{}
	for i, s := range specs {
		rec := exp.RecordOf(s, core.Result{Time: sim.Time(i+1) * 1000, Checksum: float64(i) + 0.5}, nil)
		if i == 0 && errText != "" {
			rec = exp.Record{Spec: s, Error: errText}
		}
		line, err := exp.AppendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(append(merged, line...), '\n')
		rec.SchemaVersion = exp.SchemaVersion
		if line, err = exp.AppendRecord(nil, &rec); err != nil {
			t.Fatal(err)
		}
		wire[s.Key()] = append(line, '\n')
	}
	return wire, merged
}

// jacobiAt lists n distinct specs no test ever runs: their records come
// from rendered.
func jacobiAt(n int) []exp.Spec {
	specs := make([]exp.Spec, n)
	for i := range specs {
		specs[i] = exp.Spec{App: "Jacobi", Version: core.Tmk, Procs: i + 2, Scale: core.SmallScale}
	}
	return specs
}

// TestLeaseBuffersProportionalToLines: a lease of two 150-byte lines
// must not cost a megabyte. The scanner buffer was 1 MiB, allocated and
// zeroed per lease; the whole run — both ends of 128 HTTP exchanges,
// the decode, the merge — now fits in a sixteenth of that per lease.
func TestLeaseBuffersProportionalToLines(t *testing.T) {
	specs := jacobiAt(256)
	wire, want := rendered(t, specs, "")
	c := &Coordinator{Workers: []string{stubWorker(t, wire), stubWorker(t, wire)}, RangeSize: 2}
	var got bytes.Buffer
	got.Grow(len(want))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := c.Run(&got, specs)
	runtime.ReadMemStats(&after)
	if err != nil || stats.Records != len(specs) || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("run: stats %+v, err %v, stream identical: %v", stats, err, bytes.Equal(got.Bytes(), want))
	}
	snap := c.Snapshot()
	var leases int64
	for _, ws := range snap.Workers {
		leases += ws.Leases
	}
	if leases < 100 || snap.LocalRecords != 0 {
		t.Fatalf("%d leases, %d local records; want at least 100 leases and nothing run locally", leases, snap.LocalRecords)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(leases); per >= 64<<10 {
		t.Errorf("the run allocated %d bytes per lease, want under 64 KiB", per)
	}
}

// TestLongLineStillMerges: the scanner grows to the line it meets. A
// failed run whose error text is 200 KiB merges byte-identically.
func TestLongLineStillMerges(t *testing.T) {
	specs := jacobiAt(5)
	wire, want := rendered(t, specs, strings.Repeat("long error ", 200<<10/11))
	c := &Coordinator{Workers: []string{stubWorker(t, wire)}, RangeSize: 2, Logf: t.Logf}
	var got bytes.Buffer
	stats, err := c.Run(&got, specs)
	if err == nil || stats.Records != len(specs) || stats.Failed != 1 {
		t.Fatalf("run: stats %+v, err %.40v; want 5 records, the first failed", stats, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("merged stream differs from the rendered one")
	}
	if n := c.Snapshot().LocalRecords; n != 0 {
		t.Errorf("%d records ran locally: the long line failed its lease", n)
	}
}

// TestOverLongLineFailsLease: a line over the scanner's 1 MiB maximum
// fails its lease with the scanner's error, like any malformed stream:
// the range is retried, the worker retired, and the sweep finished
// locally — byte-identically.
func TestOverLongLineFailsLease(t *testing.T) {
	specs := testGrid(t)
	overLong := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != runPath {
				next.ServeHTTP(w, r)
				return
			}
			w.Write(bytes.Repeat([]byte("x"), 1<<20+1)) //nolint:errcheck // test server
			w.Write([]byte("\n"))                       //nolint:errcheck // test server
		})
	}
	var mu sync.Mutex
	var log strings.Builder
	c := runFleet(t, &Coordinator{
		Workers:   []string{faultServer(t, overLong)},
		RangeSize: 3,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			log.WriteString(strings.TrimSpace(format) + "\n")
			for _, a := range args {
				if err, ok := a.(error); ok {
					log.WriteString(err.Error() + "\n")
				}
			}
		},
	}, specs, false)
	snap := c.Snapshot()
	if len(snap.Workers) != 1 || !snap.Workers[0].Retired || snap.Workers[0].Failures < 3 {
		t.Errorf("worker row %+v; want three failed leases and a retirement", snap.Workers)
	}
	if snap.LocalRecords != int64(len(specs)) {
		t.Errorf("%d records ran locally, want all %d", snap.LocalRecords, len(specs))
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(log.String(), "token too long") {
		t.Errorf("no lease failed with the scanner's error:\n%s", log.String())
	}
}

// ulpApp is an application whose version bad answers one ulp above the
// right checksum.
type ulpApp struct {
	core.App
	bad core.Version
}

func (a ulpApp) Run(v core.Version, cfg core.Config) (core.Result, error) {
	res, err := a.App.Run(v, cfg)
	if v == a.bad {
		res.Checksum = math.Nextafter(res.Checksum, math.Inf(1))
	}
	return res, err
}

// TestDisagreementIsOneErrorRecord: a joined run whose checksum is one
// ulp off its baseline's is exp.Agree's error record, failed and not
// stored — the same bytes from a cold engine, from a warm store that
// starts no run, and through the fabric's merge of a worker's records.
func TestDisagreementIsOneErrorRecord(t *testing.T) {
	lookup := func(name string) (core.App, error) {
		a, err := exp.AppByName(name)
		return ulpApp{a, core.XHPF}, err
	}
	specs := []exp.Spec{ // the first a label of its run, which reads no protocol
		{App: "Jacobi", Version: core.XHPF, Procs: 2, Scale: core.SmallScale, Protocol: "hlrc"},
		{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: "hlrc"},
	}
	st, err := store.Open(t.TempDir(), exp.StoreOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runs, wire := exp.PlanRuns(specs, true), map[string][]byte{}
	for i := range runs.Len() {
		e := exp.New()
		e.Lookup = lookup
		res, err := e.Run(runs.Spec(i))
		rec := exp.RecordOf(runs.Spec(i), res, err)
		rec.SchemaVersion = exp.SchemaVersion
		line, _ := exp.AppendRecord(nil, &rec)
		wire[runs.Key(i)] = append(line, '\n')
	}
	var outs [3]bytes.Buffer
	for i := range outs {
		var stats exp.StreamStats
		if i < 2 {
			e := exp.New()
			e.JoinSpeedup, e.Lookup, e.Store = true, lookup, st
			stats, err = e.StreamWith(&outs[i], specs, nil)
			if i == 1 && e.HostStats().RunsStarted != 0 {
				t.Errorf("the warm pass started %d runs", e.HostStats().RunsStarted)
			}
		} else {
			c := &Coordinator{Workers: []string{stubWorker(t, wire)}, Speedup: true, Logf: t.Logf}
			stats, err = c.Run(&outs[i], specs)
		}
		want := `{"app":"Jacobi","version":"xhpf","procs":2,"scale":"small","protocol":"hlrc","time_ns":0,"time_seconds":0,"msgs":0,"bytes":0,"checksum":0,"error":"app=Jacobi|version=xhpf|procs=2|scale=small|protocol=hlrc|contention=0|fifo=0: checksum 461.05468750000006 disagrees with 461.0546875 of app=Jacobi|version=seq|procs=1|scale=small|protocol=|contention=0|fifo=0 (relative tolerance 0)"}`
		if got, _, _ := strings.Cut(outs[i].String(), "\n"); err == nil || stats.Failed != 1 || got != want || outs[i].String() != outs[0].String() {
			t.Errorf("stream %d: stats %+v, err %v; want the first of\n%s\nto be\n%s\nand the cold stream's bytes", i, stats, err, outs[i].String(), want)
		}
	}
}

// panicApp is an application whose version bad panics mid-run, inside a
// process body, as a broken runtime does.
type panicApp struct {
	core.App
	bad core.Version
}

func (a panicApp) Run(v core.Version, cfg core.Config) (core.Result, error) {
	if v == a.bad {
		err := sim.New(sim.Config{Procs: cfg.Procs}).Run(func(*sim.Proc) { panic("boom") })
		return core.Result{}, err
	}
	return a.App.Run(v, cfg)
}

// TestPanicIsOneErrorRecord: a run that panics is its spec's error
// record carrying the panic value, and the sweep goes on — the same
// bytes from a cold engine and through the fabric's merge of a worker's
// records. Calling the application directly still panics.
func TestPanicIsOneErrorRecord(t *testing.T) {
	lookup := func(name string) (core.App, error) {
		a, err := exp.AppByName(name)
		return panicApp{a, core.XHPF}, err
	}
	specs := []exp.Spec{
		{App: "Jacobi", Version: core.XHPF, Procs: 2, Scale: core.SmallScale},
		{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale},
	}
	a, _ := lookup("Jacobi")
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("a direct Run recovered %v, want the panic", r)
			}
		}()
		a.Run(core.XHPF, a.Config(core.SmallScale, 2)) //nolint:errcheck // panics
	}()
	runs, wire := exp.PlanRuns(specs, false), map[string][]byte{}
	for i := range runs.Len() {
		e := exp.New()
		e.Lookup = lookup
		res, err := e.Run(runs.Spec(i))
		rec := exp.RecordOf(runs.Spec(i), res, err)
		rec.SchemaVersion = exp.SchemaVersion
		line, _ := exp.AppendRecord(nil, &rec)
		wire[runs.Key(i)] = append(line, '\n')
	}
	var outs [2]bytes.Buffer
	for i := range outs {
		var stats exp.StreamStats
		var err error
		if i == 0 {
			e := exp.New()
			e.Lookup = lookup
			stats, err = e.StreamWith(&outs[i], specs, nil)
		} else {
			c := &Coordinator{Workers: []string{stubWorker(t, wire)}, Logf: t.Logf}
			stats, err = c.Run(&outs[i], specs)
		}
		want := `{"app":"Jacobi","version":"xhpf","procs":2,"scale":"small","time_ns":0,"time_seconds":0,"msgs":0,"bytes":0,"checksum":0,"error":"Jacobi/xhpf: panic: boom"}`
		lines := strings.Split(strings.TrimSpace(outs[i].String()), "\n")
		if err == nil || stats.Failed != 1 || stats.Records != 2 || len(lines) != 2 || lines[0] != want || outs[i].String() != outs[0].String() {
			t.Errorf("stream %d: stats %+v, err %v; want two records, the first\n%s\nof\n%s\nand the cold stream's bytes", i, stats, err, want, outs[i].String())
		}
	}
}
