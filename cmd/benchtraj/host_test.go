package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultFile writes a one-workload bench result file.
func resultFile(t *testing.T, dir, name string, allocMB, failFrac float64, cpu string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	body := fmt.Sprintf(`{"workloads":[{"workload":"mp-mid","seed":3,"seconds":12,
	 "env":{"go_version":"go1.24.0","nproc":2,"gomaxprocs":2,"cpu_model":%q,"temp_fs":"ext4"},
	 "attempted":9,"failed":0,"fail_frac":%g,
	 "end_to_end":{"alloc_mb":{"unit":"MB","median":%g,"q1":1,"q3":2,"n":5,"samples":[1,2]},
	               "wall_s":{"unit":"s","median":0.5,"q1":0.4,"q3":0.6,"n":5}}}]}`, cpu, failFrac, allocMB)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHostTrajectoryAppendAndGate: rows accumulate one line each, a row
// within its bounds passes, one beyond them or with failed operations
// is still recorded but reported, and rows from different machines are
// not compared.
func TestHostTrajectoryAppendAndGate(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "BENCH_host.json")
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"wall_s","bound":0.25},{"name":"alloc_mb","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		label     string
		alloc     float64
		failFrac  float64
		cpu       string
		wantWorse string // substring of the one expected regression, "" for none
	}{
		{"first", 288, 0, "cpu A", ""},
		{"better", 80, 0, "cpu A", ""},
		{"within bound", 83, 0, "cpu A", ""},
		{"beyond bound", 90, 0, "cpu A", "alloc_mb"},
		{"failing", 90, 0.5, "cpu A", "fail_frac"},
		{"elsewhere", 400, 0, "cpu B", ""},
	}
	for i, s := range steps {
		worse, err := hostAppend(traj, resultFile(t, dir, "r.json", s.alloc, s.failFrac, s.cpu), s.label, "c0ffee", bounds)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		if (s.wantWorse == "") != (len(worse) == 0) || (len(worse) > 0 && !strings.Contains(worse[0], s.wantWorse)) {
			t.Errorf("%s: regressions %q, want one about %q", s.label, worse, s.wantWorse)
		}
		rows, err := loadHostRows(traj)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != i+1 {
			t.Fatalf("%s: trajectory has %d rows, want %d", s.label, len(rows), i+1)
		}
		last := rows[i]
		if last.Label != s.label || last.Commit != "c0ffee" || last.Seed != 3 || last.Env.CPUModel != s.cpu ||
			last.Workloads["mp-mid"]["alloc_mb"] != s.alloc || last.Workloads["mp-mid"]["wall_s"] != 0.5 ||
			last.Workloads["mp-mid"]["fail_frac"] != s.failFrac {
			t.Errorf("%s: row read back as %+v", s.label, last)
		}
	}
}

// TestHostRowFromCommittedBaseline distills the benchmark's own
// committed baseline: six workloads, four medians and fail_frac each.
func TestHostRowFromCommittedBaseline(t *testing.T) {
	row, err := hostRowFrom(filepath.Join("..", "..", "bench", "results", "baseline.json"), "PR 11", "f729f61")
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Workloads) != 6 {
		t.Fatalf("%d workloads, want 6", len(row.Workloads))
	}
	for name, m := range row.Workloads {
		for _, metric := range []string{"wall_s", "cpu_s", "alloc_mb", "setup_s"} {
			if m[metric] <= 0 {
				t.Errorf("%s: %s = %v", name, metric, m[metric])
			}
		}
		if f, ok := m["fail_frac"]; !ok || f != 0 {
			t.Errorf("%s: fail_frac %v present %v", name, f, ok)
		}
	}
}
