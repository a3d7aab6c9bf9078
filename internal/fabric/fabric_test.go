package fabric

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// testGrid is the distributed-identity grid: two applications, DSM and
// message-passing runtimes, both protocols, 1-2 processors at small
// scale — small enough to run many fleet shapes, wide enough to cover
// every record field family.
func testGrid(t *testing.T) []exp.Spec {
	t.Helper()
	axes := exp.Axes{
		Apps:      []string{"Jacobi", "MGS"},
		Versions:  []core.Version{core.Tmk},
		Procs:     []int{1, 2},
		Protocols: []proto.Name{proto.HomelessLRC, proto.HomeLRC},
	}
	specs := axes.Specs(exp.Spec{Scale: core.SmallScale})
	for i := range specs {
		specs[i] = specs[i].Normalize()
	}
	return specs
}

// labelList is CI's label-heavy sweep: the sequential and
// message-passing versions read neither the protocol nor the home
// policy, and the homeless protocol has no homes, so its 128 specs are
// labels of 42 runs under the baseline join (DESIGN.md "Run identity").
const labelList = "app=Jacobi,MGS version=seq,xhpf,pvme,tmk procs=2,4 protocol=lrc,hlrc homepolicy=static,firsttouch contention=0,2"

// labelGrid expands labelList at small scale, as dsmrun -sweep does.
func labelGrid(t *testing.T) []exp.Spec {
	t.Helper()
	axes, err := exp.ParseAxes(strings.Fields(labelList))
	if err != nil {
		t.Fatal(err)
	}
	specs := axes.Specs(exp.Spec{Scale: core.SmallScale})
	for i := range specs {
		specs[i] = specs[i].Normalize()
	}
	return specs
}

// executedRuns is what a fleet simulated for one Run: every record a
// worker delivered or the local fallback ran.
func executedRuns(snap FleetSnapshot) int64 {
	n := snap.LocalRecords
	for _, ws := range snap.Workers {
		n += ws.Records
	}
	return n
}

// localBytes renders the single-process reference output for specs.
func localBytes(t *testing.T, specs []exp.Spec, speedup, observe bool) []byte {
	t.Helper()
	e := exp.New()
	e.Workers = 1
	e.JoinSpeedup = speedup
	e.Observe = observe
	var buf bytes.Buffer
	if _, err := e.StreamWith(&buf, specs, nil); err != nil {
		t.Fatalf("local reference sweep: %v", err)
	}
	return buf.Bytes()
}

// startWorkers launches n independent fabric workers (each with a cold
// engine) on httptest servers and returns their base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w := NewWorker(nil)
		w.Workers = 2
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestMergeByteIdentical is the subsystem's central guarantee: the
// coordinator's merged output is byte-identical to a single-process
// sweep at 1, 2 and 4 workers, with small leases so every fleet shape
// exercises reassignment-free multi-range scheduling.
func TestMergeByteIdentical(t *testing.T) {
	specs := testGrid(t)
	want := localBytes(t, specs, false, false)
	for _, workers := range []int{1, 2, 4} {
		c := &Coordinator{
			Workers:   startWorkers(t, workers),
			RangeSize: 3, // ragged tail: 8 specs -> 3+3+2
			Logf:      t.Logf,
		}
		var got bytes.Buffer
		stats, err := c.Run(&got, specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Records != len(specs) || stats.Failed != 0 {
			t.Errorf("workers=%d: stats = %+v, want %d records, 0 failed", workers, stats, len(specs))
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Errorf("workers=%d: merged output differs from local sweep:\nlocal:\n%s\nfabric:\n%s",
				workers, want, got.Bytes())
		}
	}
}

// TestMergeByteIdenticalWithJoins re-checks identity with the
// seq-baseline join and observability on — the full record schema
// crossing the wire (speedup, bd_* attribution fields).
func TestMergeByteIdenticalWithJoins(t *testing.T) {
	specs := testGrid(t)
	want := localBytes(t, specs, true, true)
	c := &Coordinator{
		Workers:   startWorkers(t, 2),
		RangeSize: 2,
		Speedup:   true,
		Observe:   true,
		Logf:      t.Logf,
	}
	var got bytes.Buffer
	if _, err := c.Run(&got, specs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("merged output with joins differs from local sweep:\nlocal:\n%s\nfabric:\n%s", want, got.Bytes())
	}
}

// TestFleetExecutesEachRunOnce: a fleet leases runs, not specs, so a
// label or a baseline that lands on a second worker is not simulated
// again. Through 1, 2 and 4 workers the label-heavy list, joined and
// observed, merges to the local stream's bytes from exactly
// exp.PlanRuns executions (leasing the requested specs took 128).
func TestFleetExecutesEachRunOnce(t *testing.T) {
	specs := labelGrid(t)
	runs := exp.PlanRuns(specs, true).Len()
	if len(specs) != 128 || runs != 42 {
		t.Fatalf("label list is %d specs of %d runs, want 128 of 42", len(specs), runs)
	}
	want := localBytes(t, specs, true, true)
	for _, workers := range []int{1, 2, 4} {
		c := &Coordinator{Workers: startWorkers(t, workers), Speedup: true, Observe: true, Logf: t.Logf}
		var got bytes.Buffer
		stats, err := c.Run(&got, specs)
		if err != nil || stats.Records != len(specs) || stats.Failed != 0 {
			t.Fatalf("workers=%d: stats %+v, err %v", workers, stats, err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Errorf("workers=%d: merged output differs from local sweep:\nlocal:\n%s\nfabric:\n%s",
				workers, want, got.Bytes())
		}
		if n := executedRuns(c.Snapshot()); n != int64(runs) {
			t.Errorf("workers=%d: the fleet executed %d runs, want %d", workers, n, runs)
		}
	}
}

// TestNoWorkersDegradesToLocal pins the graceful-degradation path: an
// empty (and an unreachable) fleet runs the sweep locally with
// identical bytes and the same failure accounting.
func TestNoWorkersDegradesToLocal(t *testing.T) {
	specs := testGrid(t)
	want := localBytes(t, specs, false, false)
	for _, fleet := range [][]string{nil, {"127.0.0.1:1"}} {
		c := &Coordinator{Workers: fleet, Logf: t.Logf}
		var got bytes.Buffer
		stats, err := c.Run(&got, specs)
		if err != nil {
			t.Fatalf("fleet=%v: %v", fleet, err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Errorf("fleet=%v: local-degraded output differs from reference", fleet)
		}
		if stats.Records != len(specs) {
			t.Errorf("fleet=%v: stats = %+v", fleet, stats)
		}
	}
}

// TestRunFailureAccounting: run failures travel as error records and
// surface in the coordinator's stats and joined error exactly like a
// local sweep's (the dsmrun exit-nonzero contract).
func TestRunFailureAccounting(t *testing.T) {
	specs := []exp.Spec{
		{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: "lrc"},
		{App: "Jacobi", Version: "bogus", Procs: 2, Scale: core.SmallScale, Protocol: "lrc"},
	}
	ref := exp.New()
	ref.Workers = 1
	var want bytes.Buffer
	refStats, refErr := ref.StreamWith(&want, specs, nil)
	if refErr == nil || refStats.Failed != 1 {
		t.Fatalf("local reference: stats %+v, err %v — want 1 failure", refStats, refErr)
	}
	c := &Coordinator{Workers: startWorkers(t, 2), RangeSize: 1, Logf: t.Logf}
	var got bytes.Buffer
	stats, err := c.Run(&got, specs)
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("want joined run failure, got %v", err)
	}
	if stats.Failed != 1 || stats.Records != 2 {
		t.Errorf("stats = %+v, want 2 records / 1 failed", stats)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("error records not byte-identical:\nlocal:\n%s\nfabric:\n%s", want.Bytes(), got.Bytes())
	}
}

// TestRunFailureReportedOncePerRun: an execution that fails under three
// labels — the registry's lookup refuses its application — is one line
// of the coordinator's joined error, the local stream's text exactly,
// whichever workers its labels land on; each label's record still
// counts as failed.
func TestRunFailureReportedOncePerRun(t *testing.T) {
	var specs []exp.Spec
	for _, p := range []proto.Name{"", proto.HomelessLRC, proto.HomeLRC} {
		specs = append(specs, exp.Spec{App: "Nope", Version: core.XHPF, Procs: 2, Scale: core.SmallScale, Protocol: p})
	}
	_, localErr := exp.New().StreamWith(io.Discard, specs, nil)
	if localErr == nil || strings.Contains(localErr.Error(), "\n") {
		t.Fatalf("local stream error = %v, want one line", localErr)
	}
	c := &Coordinator{Workers: startWorkers(t, 2), RangeSize: 1, Logf: t.Logf}
	stats, err := c.Run(io.Discard, specs)
	if err == nil || err.Error() != localErr.Error() {
		t.Errorf("fabric error = %v, want the local stream's %q", err, localErr)
	}
	if stats.Records != 3 || stats.Failed != 3 {
		t.Errorf("stats = %+v, want 3 records / 3 failed", stats)
	}
}

// TestSchemaMismatchRejectedAtHandshake: a worker advertising another
// build's schema version is never registered; with no other worker the
// sweep degrades to local execution, still byte-identical.
func TestSchemaMismatchRejectedAtHandshake(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == healthPath {
			json.NewEncoder(w).Encode(hello{OK: true, SchemaVersion: exp.SchemaVersion + 1})
			return
		}
		t.Errorf("mismatched worker received %s — lease must not be granted", r.URL.Path)
		http.Error(w, "unexpected", http.StatusTeapot)
	}))
	defer srv.Close()

	specs := testGrid(t)[:4]
	want := localBytes(t, specs, false, false)
	var rejected bool
	c := &Coordinator{Workers: []string{srv.URL}, Logf: func(format string, args ...any) {
		if strings.Contains(format, "rejected") {
			rejected = true
		}
		t.Logf(format, args...)
	}}
	var got bytes.Buffer
	if _, err := c.Run(&got, specs); err != nil {
		t.Fatal(err)
	}
	if !rejected {
		t.Error("schema-mismatched worker was not rejected")
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Error("degraded output differs from local sweep")
	}
}

// TestWireRecordsCarrySchemaVersion hits a worker's /run directly and
// checks every streamed record is stamped with this build's schema
// version and validates (the sweeplint -require-schema contract), while
// the coordinator-merged stream carries no stamp at all.
func TestWireRecordsCarrySchemaVersion(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	specs := testGrid(t)[:3]
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key()
	}
	body, _ := json.Marshal(runRequest{SchemaVersion: exp.SchemaVersion, Lease: "t0", Keys: keys})
	resp, err := http.Post(addr+runPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %s", resp.Status)
	}
	var wire bytes.Buffer
	if _, err := wire.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(wire.Bytes()), []byte("\n"))
	if len(lines) != len(specs) {
		t.Fatalf("worker streamed %d records for %d keys", len(lines), len(specs))
	}
	for i, line := range lines {
		rec, err := exp.ValidateLine(line)
		if err != nil {
			t.Fatalf("wire record %d: %v", i, err)
		}
		if rec.SchemaVersion != exp.SchemaVersion {
			t.Errorf("wire record %d: schema_version %d, want %d", i, rec.SchemaVersion, exp.SchemaVersion)
		}
		if rec.Spec != specs[i] {
			t.Errorf("wire record %d out of order: %s", i, rec.Key())
		}
	}

	// A mismatched runRequest is refused outright, and so is a field
	// this build does not know: "speedup" came from coordinators that
	// predate run leasing.
	mismatched, _ := json.Marshal(runRequest{SchemaVersion: exp.SchemaVersion + 1, Lease: "t1", Keys: keys})
	unknown := fmt.Sprintf(`{"schema_version":%d,"lease":"t2","speedup":true,"keys":[%q]}`, exp.SchemaVersion, keys[0])
	for name, body := range map[string][]byte{"mismatched": mismatched, "speedup": []byte(unknown)} {
		resp, err := http.Post(addr+runPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s run request got status %s, want 400", name, resp.Status)
		}
	}
}

// fabricSection decodes the "fabric" section of a telemetry map.
func fabricSection(t *testing.T, m *expvar.Map) FleetSnapshot {
	t.Helper()
	var doc struct {
		Fabric *FleetSnapshot `json:"fabric"`
	}
	if err := json.Unmarshal([]byte(m.String()), &doc); err != nil || doc.Fabric == nil {
		t.Fatalf("telemetry document %s: no fabric section (%v)", m.String(), err)
	}
	return *doc.Fabric
}

// TestFleetTelemetry checks the telemetry map's fabric section carries
// the fleet accounting after a distributed run.
func TestFleetTelemetry(t *testing.T) {
	specs := testGrid(t)
	m := new(expvar.Map)
	c := &Coordinator{Workers: startWorkers(t, 2), RangeSize: 2, Metrics: m, Logf: t.Logf}
	var got bytes.Buffer
	if _, err := c.Run(&got, specs); err != nil {
		t.Fatal(err)
	}
	snap := fabricSection(t, m)
	if snap.RecordsDone != int64(len(specs)) || snap.RecordsTotal != int64(len(specs)) {
		t.Errorf("snapshot records %d/%d, want %d/%d", snap.RecordsDone, snap.RecordsTotal, len(specs), len(specs))
	}
	// RangeSize 2 over the grid's runs fixes the range count, and a
	// healthy fleet leases each range once.
	runs := exp.PlanRuns(specs, false).Len()
	ranges := (runs + 1) / 2
	if snap.RangesDone != ranges || snap.RangesTotal != ranges {
		t.Errorf("snapshot ranges %d/%d, want %d/%d", snap.RangesDone, snap.RangesTotal, ranges, ranges)
	}
	if len(snap.Workers) != 2 {
		t.Fatalf("snapshot has %d workers, want 2", len(snap.Workers))
	}
	var leased int64
	for _, ws := range snap.Workers {
		leased += ws.Leases
		if ws.Retired {
			t.Errorf("healthy worker %s retired", ws.Addr)
		}
	}
	if leased != int64(ranges) {
		t.Errorf("fleet granted %d leases for %d ranges", leased, ranges)
	}
	if executedRuns(snap) != int64(runs) {
		t.Errorf("fleet executed %d runs, want %d", executedRuns(snap), runs)
	}
}

// TestCoordinatorRunsTwice: a second Run on one coordinator counts its
// own records, ranges and fleet only, whether the first ran on a fleet
// or locally.
func TestCoordinatorRunsTwice(t *testing.T) {
	specs := testGrid(t)
	n := int64(len(specs))
	m := new(expvar.Map)
	c := &Coordinator{RangeSize: 2, Metrics: m, Logf: t.Logf}
	for i, fleet := range [][]string{startWorkers(t, 2), nil, startWorkers(t, 1)} {
		c.Workers = fleet
		if _, err := c.Run(io.Discard, specs); err != nil {
			t.Fatal(err)
		}
		snap := fabricSection(t, m)
		if snap.RecordsDone != n || snap.RecordsTotal != n || snap.RecordsFailed != 0 {
			t.Errorf("run %d: records %d/%d (%d failed), want %d/%d", i, snap.RecordsDone, snap.RecordsTotal, snap.RecordsFailed, n, n)
		}
		if len(snap.Workers) != len(fleet) {
			t.Errorf("run %d: %d worker rows for a fleet of %d: %+v", i, len(snap.Workers), len(fleet), snap.Workers)
		}
		for j, ws := range snap.Workers {
			if ws.Addr != normalizeAddr(fleet[j]) {
				t.Errorf("run %d: worker row %s, want %s", i, ws.Addr, normalizeAddr(fleet[j]))
			}
		}
		if fleet == nil {
			if snap.LocalRecords != n || snap.RangesTotal != 0 {
				t.Errorf("run %d: local run reports %d local records and %d ranges, want %d and 0", i, snap.LocalRecords, snap.RangesTotal, n)
			}
		} else if runs := int64(exp.PlanRuns(specs, false).Len()); executedRuns(snap) != runs || snap.RangesDone != snap.RangesTotal {
			t.Errorf("run %d: fleet executed %d runs in %d/%d ranges, want %d runs", i, executedRuns(snap), snap.RangesDone, snap.RangesTotal, runs)
		}
	}
}

// TestRepeatedWorkerAddressRegistersOnce: one worker listed under three
// spellings of its address is one registered worker, with one row in
// the fabric section, and the sweep merges the local stream.
func TestRepeatedWorkerAddressRegistersOnce(t *testing.T) {
	specs := testGrid(t)
	u := startWorkers(t, 1)[0]
	m := new(expvar.Map)
	c := &Coordinator{
		Workers: []string{u, u + "/", strings.TrimPrefix(u, "http://")},
		Metrics: m,
		Logf:    t.Logf,
	}
	var got bytes.Buffer
	if _, err := c.Run(&got, specs); err != nil {
		t.Fatal(err)
	}
	if rows := fabricSection(t, m).Workers; len(rows) != 1 {
		t.Errorf("%d snapshot rows for one worker: %+v", len(rows), rows)
	}
	if want := localBytes(t, specs, false, false); !bytes.Equal(want, got.Bytes()) {
		t.Errorf("merged output differs from local sweep:\nlocal:\n%s\nfabric:\n%s", want, got.Bytes())
	}
}

// TestWorkerCounters: a worker's fabric_worker section counts the
// leases it streamed, their records and the leases it refused, and its
// engine section the runs it executed.
func TestWorkerCounters(t *testing.T) {
	specs := testGrid(t)
	m := new(expvar.Map)
	w := NewWorker(m)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	c := &Coordinator{Workers: []string{srv.URL}, RangeSize: 2, Logf: t.Logf}
	if _, err := c.Run(io.Discard, specs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+runPath, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var doc struct {
		Engine       exp.HostStats  `json:"engine"`
		FabricWorker WorkerCounters `json:"fabric_worker"`
	}
	if err := json.Unmarshal([]byte(m.String()), &doc); err != nil {
		t.Fatalf("telemetry document %s: %v", m.String(), err)
	}
	runs := int64(exp.PlanRuns(specs, false).Len())
	want := WorkerCounters{Leases: c.Snapshot().Workers[0].Leases, LeasesDenied: 1, Records: runs}
	if doc.FabricWorker != want {
		t.Errorf("fabric_worker section %+v, want %+v", doc.FabricWorker, want)
	}
	if doc.Engine.RunsStarted != runs {
		t.Errorf("worker engine started %d runs, want %d", doc.Engine.RunsStarted, runs)
	}
}

// engineSection decodes the engine section of m's document.
func engineSection(t *testing.T, m *expvar.Map) exp.HostStats {
	t.Helper()
	var doc struct {
		Engine *exp.HostStats `json:"engine"`
	}
	if err := json.Unmarshal([]byte(m.String()), &doc); err != nil || doc.Engine == nil {
		t.Fatalf("telemetry document %s: no engine section (%v)", m.String(), err)
	}
	return *doc.Engine
}

// TestWorkerResolvesEveryLeasedRun: a worker's engine section is its
// progress over every lease it takes. One worker serves two Runs of the
// same specs, the second answered from its record cache, then a Run of
// other specs whose store already holds half of their runs. After each
// Run every planned run is resolved and each distinct run was simulated
// once.
func TestWorkerResolvesEveryLeasedRun(t *testing.T) {
	specs := testGrid(t)
	first, second := specs[:4], specs[4:]
	w, url := storeWorker(t, t.TempDir())
	c := &Coordinator{Workers: []string{url}, RangeSize: 2}
	check := func(run string, planned, started int64) {
		t.Helper()
		hs := engineSection(t, w.Metrics)
		if hs.RunsPlanned != planned || hs.RunsResolved != planned || hs.RunsStarted != started {
			t.Errorf("%s: %d of %d planned runs resolved, %d started; want %d of %d, %d started",
				run, hs.RunsResolved, hs.RunsPlanned, hs.RunsStarted, planned, planned, started)
		}
	}
	runFleet(t, c, first, false)
	check("first run", 4, 4)
	runFleet(t, c, first, false)
	check("repeated run", 8, 4)

	pre := exp.New()
	pre.Store = w.Store
	if _, err := pre.StreamWith(io.Discard, second[:2], nil); err != nil {
		t.Fatal(err)
	}
	runFleet(t, c, second, false)
	check("half-stored run", 12, 6)
	if hs := engineSection(t, w.Metrics); hs.StoreHits != 2 {
		t.Errorf("half-stored run: %d store hits, want 2", hs.StoreHits)
	}
}

// TestLargeGridByteIdentical runs a wider grid (every version both
// test apps support, 1-4 procs, both protocols) through a 4-worker
// fleet — the full-harness-grid acceptance check.
func TestLargeGridByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid in -short mode")
	}
	var specs []exp.Spec
	for _, a := range exp.Apps() {
		name := a.Name()
		if name != "Jacobi" && name != "MGS" && name != "RB-SOR" {
			continue
		}
		for _, v := range a.Versions() {
			for _, procs := range []int{1, 2, 4} {
				for _, p := range []proto.Name{proto.HomelessLRC, proto.HomeLRC} {
					s := exp.Spec{App: name, Version: v, Procs: procs, Scale: core.SmallScale, Protocol: p}
					specs = append(specs, s.Normalize())
				}
			}
		}
	}
	want := localBytes(t, specs, false, false)
	c := &Coordinator{Workers: startWorkers(t, 4), RangeSize: 5, Logf: t.Logf,
		LeaseTimeout: 5 * time.Minute}
	var got bytes.Buffer
	if _, err := c.Run(&got, specs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Error("large-grid merged output differs from local sweep")
	}
}
