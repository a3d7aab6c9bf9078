package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exp"
)

// The spec lists are a pure function of the seed, and every spec is one
// the engine accepts.
func TestSpecListsArePureAndValid(t *testing.T) {
	lists := map[string]func() []exp.Spec{
		"dsm-mid":     dsmMidSpecs,
		"mp-mid":      mpMidSpecs,
		"churn-small": churnSpecs,
	}
	for name, list := range lists {
		a, b := shuffled(list(), 7), shuffled(list(), 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two lists of one seed differ", name)
		}
		if other := shuffled(list(), 8); reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 give the same order", name)
		}
		seen := map[string]bool{}
		for _, s := range a {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %s: %v", name, s.Key(), err)
			}
			if s != s.Normalize() {
				t.Errorf("%s: %s is not normalized", name, s.Key())
			}
			if seen[s.Key()] {
				t.Errorf("%s: %s appears twice", name, s.Key())
			}
			seen[s.Key()] = true
		}
	}
}

// BENCHMARK.json and the tables in the code name the same workloads and
// metrics, with the same units and bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		if _, err := loadVirt(w.virt); err != nil {
			t.Errorf("workload %q: %v", w.name, err)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != "lower" || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
		if !name.MatchString(m.name) || seen[m.name] {
			t.Errorf("per-layer metric %q: bad or repeated name", m.name)
		}
		seen[m.name] = true
	}
}

func TestResultRoundTrips(t *testing.T) {
	want := Result{Workloads: []WorkloadResult{{
		Workload: "dsm-mid", Seed: 3, Seconds: 12, Env: environment(), Attempted: 10, Failed: 1, FailFrac: 0.1,
		EndToEnd: map[string]Stat{"wall_s": newStat("s", []float64{1.5, 1.25, 1.75, 1.0, 2.0})},
		PerLayer: map[string]Value{"sim.dispatches": {Value: 171615, Unit: "count"}},
	}}}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := readJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if s := want.Workloads[0].EndToEnd["wall_s"]; s.Median != 1.5 || s.Q1 != 1.25 || s.Q3 != 1.75 {
		t.Errorf("quartiles of 1..2 by quarters = %v %v %v", s.Q1, s.Median, s.Q3)
	}
}

// A two-spec rep of every workload passes its output checks, untraced
// and traced, and the traced rep's spans make a valid Chrome trace.
func TestSmokeReps(t *testing.T) {
	for _, w := range workloads {
		st, err := w.setup(defaultSeed, true)
		if err != nil {
			t.Fatalf("%s: set-up: %v", w.name, err)
		}
		for _, tr := range []*tracer{nil, newTracer(w.name)} {
			_, out, attempted, failed, err := timedRep(w, st, tr)
			if err != nil {
				t.Fatal(err)
			}
			if attempted == 0 || failed != 0 {
				t.Errorf("%s: %d of %d checks failed", w.name, failed, attempted)
			}
			if tr == nil {
				continue
			}
			if err := tr.writeChrome(filepath.Join(t.TempDir(), "trace.json")); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			if len(out.stream) > 0 {
				if ref, err := loadVirt(w.virt); err != nil || drift(ref, virtRows(out.stream)) != 0 {
					t.Errorf("%s: virtual results drifted from %s (%v)", w.name, virtPath(w.virt), err)
				}
			}
		}
		st.close()
	}
}

// The checks must see what they claim to see: a changed checksum, a
// run error and a missing line each fail, and a changed virtual time is
// drift.
func TestChecksCatchBadOutput(t *testing.T) {
	w := workloadByName("dsm-mid")
	st, err := w.setup(defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.rep(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(out.stream, []byte("\n"))
	var rec exp.Record
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*exp.Record)) []byte {
		r := rec
		f(&r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return append(append(b, '\n'), lines[1]...)
	}
	for name, bad := range map[string][]byte{
		"checksum": mutate(func(r *exp.Record) { r.Checksum *= 1 + 1e-6 }),
		"error":    mutate(func(r *exp.Record) { r.Error = "boom" }),
		"missing":  lines[1],
	} {
		if _, failed := checkStream(st.base, st.specs, bad); failed == 0 {
			t.Errorf("%s: the checks passed a bad stream", name)
		}
	}
	ref, err := loadVirt(w.virt)
	if err != nil {
		t.Fatal(err)
	}
	slower := mutate(func(r *exp.Record) { r.TimeNanos++ })
	if n := drift(ref, virtRows(slower)); n != 1 {
		t.Errorf("drift of one changed record = %d", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	stat := func(med, iqr float64) Stat {
		return Stat{Unit: "s", Median: med, Q1: med - iqr/2, Q3: med + iqr/2, N: 7}
	}
	for _, c := range []struct {
		a, b Stat
		want string
	}{
		{stat(1, 0.02), stat(1.05, 0.02), "same"},
		{stat(1, 0.02), stat(1.2, 0.02), "worse"},
		{stat(1, 0.02), stat(0.8, 0.02), "better"},
		{stat(1, 0.3), stat(1.05, 0.02), "unresolved"},
		{stat(1, 0.3), stat(1.2, 0.02), "unresolved"}, // a gap inside the spread shows nothing
		{stat(1, 0.3), stat(2, 0.02), "worse"},
	} {
		if got := verdict(c.a, c.b, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Median, c.b.Median, got, c.want)
		}
	}

	dir := t.TempDir()
	file := func(name string, wall float64, failed int) string {
		r := WorkloadResult{Workload: "dsm-mid", Attempted: 10, Failed: failed, FailFrac: float64(failed) / 10, EndToEnd: map[string]Stat{}}
		for _, m := range endToEnd {
			r.EndToEnd[m.name] = stat(wall, 0.01)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, Result{Workloads: []WorkloadResult{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", 1, 0)
	for _, c := range []struct {
		path  string
		worse bool
	}{
		{file("same.json", 1.01, 0), false},
		{file("slow.json", 1.5, 0), true},
		{file("failing.json", 1, 1), true},
	} {
		var buf bytes.Buffer
		worse, err := compareFiles(&buf, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("compare %s: worse = %v, want %v\n%s", filepath.Base(c.path), worse, c.worse, buf.String())
		}
	}
}
