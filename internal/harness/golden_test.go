package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden-small.jsonl, experiments-small.txt and versions-small-traces.sha256, logging each key whose fields moved")

// The small-scale goldens: one observed, speedup-joined record per run
// (goldenRuns), the tables rendered from them, and one Chrome-trace
// SHA-256 per runtime. A deliberate model change regenerates all three
// with
//
//	go test ./internal/harness -run TestGoldenRecords -update-golden -v
//
// and then, if a BENCH_6.json row moved, `benchtraj -out BENCH_6.json`.
const (
	goldenRecords = "testdata/golden-small.jsonl"
	goldenTables  = "testdata/experiments-small.txt"
	goldenTraces  = "testdata/versions-small-traces.sha256"
	benchTraj     = "../../BENCH_6.json"
)

// everyVersion is every registered application × every version it
// lists at small scale and procs processors, under both coherence
// protocols for the versions that run on the DSM and once for the rest.
func everyVersion(procs int) []exp.Spec {
	var specs []exp.Spec
	for _, a := range exp.Apps() {
		for _, v := range a.Versions() {
			prots := []proto.Name{""}
			if core.Describe(v).Runtime.OnDSM() {
				prots = proto.Names()
			}
			for _, p := range prots {
				specs = append(specs, small(a.Name(), v, procs, p))
			}
		}
	}
	return specs
}

// goldenRuns is every run the small-scale goldens pin, canonical and
// each once, in first-need order: every version at 3 processors (a
// ragged count) and at 4, every table's runs at smallBase, and the runs
// of BENCH_6.json's rows.
func goldenRuns(t *testing.T) []exp.Spec {
	specs := append(everyVersion(3), everyVersion(4)...)
	for _, tab := range tables {
		specs = append(specs, tab.Specs(smallBase)...)
	}
	for _, rec := range readRecords(t, benchTraj) {
		specs = append(specs, rec.Spec)
	}
	runs := exp.PlanRuns(specs, false)
	out := make([]exp.Spec, runs.Len())
	for i := range out {
		out[i] = runs.Spec(i)
	}
	return out
}

// readRecords reads a JSON-lines record file.
func readRecords(t *testing.T, path string) []exp.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []exp.Record
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		rec, err := exp.ValidateLine(line)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// golden is the pinned record of s's run, labelled s.
func golden(t *testing.T, s exp.Spec) exp.Record {
	t.Helper()
	if goldenByKey == nil {
		goldenByKey = map[string]exp.Record{}
		for _, rec := range readRecords(t, goldenRecords) {
			goldenByKey[rec.Key()] = rec
		}
	}
	rec, ok := goldenByKey[s.Canonical().Key()]
	if !ok {
		t.Fatalf("%s has no line for %s", goldenRecords, s.Canonical().Key())
	}
	return exp.Labelled(s, rec, nil)
}

var goldenByKey map[string]exp.Record

// goldenRecs is the golden record of each of specs.
func goldenRecs(t *testing.T, specs []exp.Spec) []exp.Record {
	recs := make([]exp.Record, len(specs))
	for i, s := range specs {
		recs[i] = golden(t, s)
	}
	return recs
}

// renderGolden prints every table the way dsmrun -tables does, each
// followed by a blank line, from the golden records of its specs.
func renderGolden(t *testing.T) string {
	var out strings.Builder
	for _, tab := range tables {
		if err := tab.Render(&out, smallBase, goldenRecs(t, tab.Specs(smallBase))); err != nil {
			t.Fatalf("%s: %v", tab.Name, err)
		}
		out.WriteString("\n")
	}
	return out.String()
}

// traceDigests renders the Chrome trace of one run per runtime —
// Jacobi's base versions at 3 processors — and returns one
// "sha256  App/version" line per run.
func traceDigests(t *testing.T) []byte {
	e := exp.New()
	e.Observe = true
	var out bytes.Buffer
	for _, row := range core.VersionTable() {
		if row.Varies != "" {
			continue
		}
		s := small("Jacobi", row.Version, 3, "")
		res, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		h := sha256.New()
		if err := res.Trace.WriteChrome(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%x  %s/%s\n", h.Sum(nil), s.App, s.Version)
	}
	return out.Bytes()
}

// TestGoldenRecords pins the whole observed, speedup-joined record of
// every run in goldenRuns — time, traffic by kind, checksum, the
// fault/sync/write attribution and every per-node breakdown field — and
// the Chrome trace of one run per runtime. A run whose checksum does
// not agree with its seq baseline's (exp.Agree) is an error record.
func TestGoldenRecords(t *testing.T) {
	e := exp.New()
	e.Observe, e.JoinSpeedup = true, true
	var records bytes.Buffer
	if _, err := e.StreamWith(&records, goldenRuns(t), nil); err != nil {
		t.Fatal(err)
	}
	traces := traceDigests(t)
	old, _ := os.ReadFile(goldenRecords)
	moved := movedKeys(old, records.Bytes())
	if *updateGolden {
		t.Logf("%d keys moved:\n%s", len(moved), strings.Join(moved, "\n"))
		for path, data := range map[string][]byte{goldenRecords: records.Bytes(), goldenTraces: traces} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		goldenByKey = nil
		if err := os.WriteFile(goldenTables, []byte(renderGolden(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(old, records.Bytes()) {
		t.Errorf("%s drifted (if deliberate, rerun with -update-golden):\n%s", goldenRecords, strings.Join(moved, "\n"))
	}
	if want, _ := os.ReadFile(goldenTraces); !bytes.Equal(traces, want) {
		t.Errorf("%s drifted (if deliberate, rerun with -update-golden):\n got %s\nwant %s", goldenTraces, traces, want)
	}
}

// movedKeys lists, sorted, each key whose fields differ between the
// record files old and now, with the fields that moved.
func movedKeys(old, now []byte) []string {
	was, is := fieldsByKey(old), fieldsByKey(now)
	var out []string
	for key := range union(was, is) {
		var diff []string
		for name := range union(was[key], is[key]) {
			if !reflect.DeepEqual(was[key][name], is[key][name]) {
				diff = append(diff, fmt.Sprintf("%s %v → %v", name, was[key][name], is[key][name]))
			}
		}
		if len(diff) > 0 {
			sort.Strings(diff)
			out = append(out, key+": "+strings.Join(diff, ", "))
		}
	}
	sort.Strings(out)
	return out
}

// fieldsByKey decodes a record file's lines into their fields, by key.
func fieldsByKey(data []byte) map[string]map[string]any {
	m := map[string]map[string]any{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var f map[string]any
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber() // a field prints as the file has it
		if rec, err := exp.ValidateLine(line); err == nil && dec.Decode(&f) == nil {
			m[rec.Key()] = f
		}
	}
	return m
}

// union is the set of a's and b's keys.
func union[V any](a, b map[string]V) map[string]bool {
	m := map[string]bool{}
	for k := range a {
		m[k] = true
	}
	for k := range b {
		m[k] = true
	}
	return m
}

// TestTablesRenderFromGolden: every table, rendered from the pinned
// records, is testdata/experiments-small.txt — no simulation runs.
func TestTablesRenderFromGolden(t *testing.T) {
	want, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(t); got != string(want) {
		t.Errorf("tables rendered from %s differ from %s:\n%s", goldenRecords, goldenTables, got)
	}
}

// TestBenchTrajectoryIsGolden: each BENCH_6.json row is the pinned
// record of its run, labelled as the row is, but for host_ns and
// diff_bytes, which the trajectory predates.
func TestBenchTrajectoryIsGolden(t *testing.T) {
	for _, row := range readRecords(t, benchTraj) {
		row.HostNanos = 0
		want, _ := exp.AppendRecord(nil, &row)
		rec := golden(t, row.Spec)
		rec.DiffBytes = 0
		if got, _ := exp.AppendRecord(nil, &rec); !bytes.Equal(got, want) {
			t.Errorf("%s row is not the golden record:\n got %s\nwant %s", benchTraj, got, want)
		}
	}
}

// TestGoldenTrafficCoversEveryVersion: every (application, version,
// protocol) the harness can run at 4 processors has a golden record, so
// adding an application or version without pinning it fails here.
func TestGoldenTrafficCoversEveryVersion(t *testing.T) {
	for _, s := range everyVersion(4) {
		golden(t, s)
	}
}

// TestGoldenTrafficContentionInvariant re-runs a representative subset
// under the harshest contention point. Message-passing versions have a
// fixed communication schedule, so their traffic must match the golden
// record exactly — queueing delays their messages but never adds, drops
// or resizes them. The DSM runtimes are timing-adaptive (the request
// server's interleaving with the application shifts under contention,
// so the protocol may batch a fetch or two differently); for those the
// answer must still agree (exp.Agree: bitwise) with the uncontended
// run's, and the traffic may drift only marginally from golden.
func TestGoldenTrafficContentionInvariant(t *testing.T) {
	e := exp.New()
	for _, s := range everyVersion(4) {
		if s.Version == core.Seq || !slices.Contains(contentionApps, s.App) {
			continue
		}
		g, rec := golden(t, s), runRecord(t, e, contended(s, 1))
		if err := exp.Agree(rec, g); err != nil {
			t.Error(err)
		}
		bound := 0.05 // DSM: marginal protocol re-batching, nothing more
		if s.Protocol == "" {
			bound = 0 // a fixed message-passing schedule: exact
		}
		if drift(rec.Msgs, g.Msgs) > bound || drift(rec.Bytes, g.Bytes) > bound {
			t.Errorf("%s: contention moved traffic beyond %g: got %d msgs / %d bytes, golden %d / %d",
				rec.Key(), bound, rec.Msgs, rec.Bytes, g.Msgs, g.Bytes)
		}
	}
}

// drift returns |a-b| as a fraction of b.
func drift(a, b int64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(b)
}
