// Command bench is the host-performance benchmark of the whole stack:
// six workloads that load different layers, four gated end-to-end
// metrics per workload, per-layer counts, span sums and probes from a
// separate traced run. See README.md.
//
//	bench                                  every workload, untraced then traced, one result file
//	bench -workload W -trace 0|1           one run of one workload (what the driver calls)
//	bench -compare A.json B.json           verdict per workload and end-to-end metric
//	bench -update-virt                     rewrite testdata/virt_*.jsonl
//
// Run it from this directory (run.sh does): testdata/ and out/ are
// relative to it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

const (
	defaultSeed    = 1
	defaultSeconds = 12
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// Result is the file the whole command writes and -compare reads.
type Result struct {
	Workloads []WorkloadResult `json:"workloads"`
}

func main() {
	name := flag.String("workload", "", "run one workload (default: all six, each in its own process)")
	seed := flag.Int64("seed", defaultSeed, "workload seed: spec order, generated-program seeds, store key order")
	seconds := flag.Int("seconds", defaultSeconds, "seconds of timed reps in an untraced run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: one traced rep, per-layer metrics and probes")
	out := flag.String("out", filepath.Join("out", "result.json"), "result file of the whole command")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	update := flag.Bool("update-virt", false, "rewrite the virtual-drift references under testdata/")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *update:
		if err := updateVirt(); err != nil {
			fatal(err)
		}
	case *name == "":
		if err := runAll(*seed, *seconds, *out); err != nil {
			fatal(err)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if err := runOne(w, *seed, *seconds, *trace); err != nil {
			fatal(err)
		}
	}
}

// runFile is where one run leaves its detailed result.
func runFile(workload string, trace int) string {
	return filepath.Join(outDir(), fmt.Sprintf("%s.trace%d.json", workload, trace))
}

// runOne is one run of one workload. It prints every metric by name
// with its unit, leaves the detailed result in out/, and ends with the
// one-line JSON summary the driver reads.
func runOne(w *workload, seed int64, seconds, trace int) error {
	run := measure
	if trace != 0 {
		run = traced
	}
	res, err := run(w, seed, seconds)
	if err != nil {
		return err
	}
	printResult(res)
	if err := writeJSON(runFile(w.name, trace), res); err != nil {
		return err
	}
	metrics := map[string]Value{}
	for name, s := range res.EndToEnd {
		metrics[name] = Value{Value: s.Median, Unit: s.Unit}
	}
	for name, v := range res.PerLayer {
		metrics[name] = v
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printResult(res WorkloadResult) {
	fmt.Printf("workload %s  seed %d  %s, %d cpus, GOMAXPROCS %d, %s, %s\n", res.Workload, res.Seed,
		res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.CPUModel, res.Env.TempFS)
	for _, m := range endToEnd {
		if s, ok := res.EndToEnd[m.name]; ok {
			fmt.Printf("  %-28s %14.6g %-5s  q1 %.6g  q3 %.6g  n=%d\n", m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
	}
	fmt.Printf("  %-28s %14.6g %-5s  %d failed of %d attempted\n", "fail_frac", res.FailFrac, "ratio", res.Failed, res.Attempted)
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.name]; ok {
			fmt.Printf("  %-28s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
}

// runAll runs every workload in its own process, untraced then traced,
// and merges the runs' result files into one.
func runAll(seed int64, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all Result
	for _, w := range workloads {
		var merged WorkloadResult
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			var res WorkloadResult
			if err := readJSON(runFile(w.name, trace), &res); err != nil {
				return err
			}
			if trace == 0 {
				merged = res
				continue
			}
			merged.PerLayer = res.PerLayer
			merged.Attempted += res.Attempted
			merged.Failed += res.Failed
			merged.FailFrac = float64(merged.Failed) / float64(merged.Attempted)
		}
		all.Workloads = append(all.Workloads, merged)
	}
	wall := func(name string) float64 {
		for _, r := range all.Workloads {
			if r.Workload == name {
				return r.EndToEnd["wall_s"].Median
			}
		}
		return 0
	}
	fmt.Printf("wall_s(fabric-loop2) / wall_s(churn-small) - 1 = %.4f\n", wall("fabric-loop2")/wall("churn-small")-1)
	fmt.Println("result file:", out)
	return writeJSON(out, all)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}
