package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The host trajectory, BENCH_host.json, is the other clock's
// counterpart of the golden record file: one JSON line per measured
// commit holding the medians of the host benchmark's end-to-end metrics
// (see bench/README.md) for every workload. Nothing here runs the
// benchmark or touches bench/: a row is distilled from a result file
// `bash bench/run.sh` wrote.
//
//	bash bench/run.sh                         # writes bench/out/result.json
//	benchtraj -host BENCH_host.json -result bench/out/result.json -label "PR 17" -commit abc1234
//
// Host times depend on the machine, so each row carries the
// environment it was measured in, and the appended row is compared with
// the previous one only when the two agree on it: a metric worse by
// more than its bound in BENCHMARK.json, or any failed operation, is
// reported and exits 1 — after the row is written, because the
// trajectory records what was measured, not what was hoped for.

// hostEnv is the part of a result's environment that decides whether
// two rows' times are comparable.
type hostEnv struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
}

// hostRow is one line of the host trajectory.
type hostRow struct {
	Label   string  `json:"label"`
	Commit  string  `json:"commit"`
	Seed    int64   `json:"seed"`
	Seconds int     `json:"seconds"`
	Env     hostEnv `json:"env"`
	// Workloads maps workload name to metric name to median; fail_frac
	// rides along as one more entry.
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// benchResult is what this file reads of a bench/ result file.
type benchResult struct {
	Workloads []struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  int     `json:"seconds"`
		Env      hostEnv `json:"env"`
		FailFrac float64 `json:"fail_frac"`
		EndToEnd map[string]struct {
			Median float64 `json:"median"`
		} `json:"end_to_end"`
	} `json:"workloads"`
}

// hostRowFrom distills a bench result file into a trajectory row.
func hostRowFrom(resultPath, label, commit string) (hostRow, error) {
	data, err := os.ReadFile(resultPath)
	if err != nil {
		return hostRow{}, err
	}
	var res benchResult
	if err := json.Unmarshal(data, &res); err != nil {
		return hostRow{}, fmt.Errorf("%s: %v", resultPath, err)
	}
	if len(res.Workloads) == 0 {
		return hostRow{}, fmt.Errorf("%s: no workloads (want the result file of a whole bench/run.sh command)", resultPath)
	}
	first := res.Workloads[0]
	row := hostRow{Label: label, Commit: commit, Seed: first.Seed, Seconds: first.Seconds, Env: first.Env,
		Workloads: map[string]map[string]float64{}}
	for _, w := range res.Workloads {
		m := map[string]float64{"fail_frac": w.FailFrac}
		for name, s := range w.EndToEnd {
			m[name] = s.Median
		}
		row.Workloads[w.Workload] = m
	}
	return row, nil
}

// loadHostRows reads a host trajectory; a missing file is an empty one.
func loadHostRows(path string) ([]hostRow, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []hostRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row hostRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// hostBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json (all of them are lower-is-better).
func hostBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// hostRegressions lists what got worse from prev to next by more than
// its bound, plus any failed operation, in a stable order.
func hostRegressions(prev, next hostRow, bounds map[string]float64) []string {
	var out []string
	for _, name := range sortedKeys(next.Workloads) {
		got, was := next.Workloads[name], prev.Workloads[name]
		if got["fail_frac"] > 0 {
			out = append(out, fmt.Sprintf("%s: fail_frac %g", name, got["fail_frac"]))
		}
		for _, m := range sortedKeys(bounds) {
			if was[m] > 0 && got[m] > was[m]*(1+bounds[m]) {
				out = append(out, fmt.Sprintf("%s: %s %.6g -> %.6g (+%.1f%%, bound %.0f%%)",
					name, m, was[m], got[m], 100*(got[m]/was[m]-1), 100*bounds[m]))
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostAppend appends the row distilled from resultPath to the
// trajectory and returns the regressions against the previous row
// (none when there is no previous row or it was measured elsewhere).
func hostAppend(trajPath, resultPath, label, commit, boundsPath string) ([]string, error) {
	row, err := hostRowFrom(resultPath, label, commit)
	if err != nil {
		return nil, err
	}
	rows, err := loadHostRows(trajPath)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(row)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(trajPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	prev := rows[len(rows)-1]
	if prev.Env != row.Env {
		fmt.Printf("benchtraj: %q was measured on %+v, %q on %+v: not compared\n", prev.Label, prev.Env, row.Label, row.Env)
		return nil, nil
	}
	bounds, err := hostBounds(boundsPath)
	if err != nil {
		return nil, err
	}
	return hostRegressions(prev, row, bounds), nil
}
