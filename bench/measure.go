package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json repeats them and the test
// holds the two in step.
type metricDef struct {
	name, unit string
	// bound, on an end-to-end metric, is the share of the first run's
	// median by which the second's may be worse before it is a
	// regression. Every end-to-end metric is a cost: lower is better.
	bound float64
}

var endToEnd = []metricDef{
	{"wall_s", "s", 0.25},
	{"cpu_s", "s", 0.25},
	{"alloc_mb", "MB", 0.05},
	{"setup_s", "s", 0.25},
}

const (
	setups  = 3 // set-ups per run; setup_s is their median
	minReps = 5
)

// Stat is one end-to-end metric over the reps of one run.
type Stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// Value is one per-layer metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// WorkloadResult is everything one run (or one untraced plus one traced
// run) measured on one workload.
type WorkloadResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Env       Env              `json:"env"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailFrac  float64          `json:"fail_frac"`
	EndToEnd  map[string]Stat  `json:"end_to_end,omitempty"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
}

// quantile returns the p-quantile of xs (linear interpolation between
// order statistics). A percentile means something only when at least
// ten samples lie beyond it.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func newStat(unit string, xs []float64) Stat {
	return Stat{Unit: unit, Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs), Samples: xs}
}

// cpuSeconds is the user plus system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// repCost is the host cost of one rep.
type repCost struct {
	wall, cpu  float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
	sim        sim.HostStats // deltas, except PeakQueue: the process's peak so far
}

// timedRep runs one rep between two quiescent points and checks its
// output afterwards, outside the timed window.
func timedRep(w *workload, st *state, tr *tracer) (repCost, repOut, int, int, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := sim.HostTotals()
	c0 := cpuSeconds()
	t0 := time.Now()
	id := tr.begin(noParent, "rep", w.name)
	out, err := w.rep(st, tr)
	tr.end(id)
	c := repCost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	runtime.ReadMemStats(&m1)
	s1 := sim.HostTotals()
	c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	c.mallocs = m1.Mallocs - m0.Mallocs
	c.gcCycles = m1.NumGC - m0.NumGC
	c.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	c.sim = sim.HostStats{Dispatches: s1.Dispatches - s0.Dispatches, Delivered: s1.Delivered - s0.Delivered, PeakQueue: s1.PeakQueue}
	if err != nil {
		return c, out, 0, 0, fmt.Errorf("%s: rep: %w", w.name, err)
	}
	att, failed := w.check(st, out)
	return c, out, att, failed, nil
}

// setUp builds the workload's inputs and runs the discarded warm-up
// rep: everything a run pays before its first timed rep.
func setUp(w *workload, seed int64) (*state, float64, error) {
	t0 := time.Now()
	st, err := w.setup(seed, false)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if _, err := w.rep(st, nil); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	return st, time.Since(t0).Seconds(), nil
}

// measure is the untraced run: set up (several times, for a steady
// setup_s), then timed reps on cold engines until the time is spent.
func measure(w *workload, seed int64, seconds int) (WorkloadResult, error) {
	res := WorkloadResult{Workload: w.name, Seed: seed, Seconds: seconds, Env: environment()}
	var st *state
	var setupS, wall, cpu, alloc []float64
	for i := 0; i < setups; i++ {
		st.close()
		var secs float64
		var err error
		if st, secs, err = setUp(w, seed); err != nil {
			return res, err
		}
		setupS = append(setupS, secs)
	}
	defer st.close()
	start := time.Now()
	for len(wall) < minReps || time.Since(start) < time.Duration(seconds)*time.Second {
		c, _, att, failed, err := timedRep(w, st, nil)
		if err != nil {
			return res, err
		}
		wall = append(wall, c.wall)
		cpu = append(cpu, c.cpu)
		alloc = append(alloc, float64(c.allocBytes)/1e6)
		res.Attempted += att
		res.Failed += failed
	}
	res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	res.EndToEnd = map[string]Stat{
		"wall_s":   newStat("s", wall),
		"cpu_s":    newStat("s", cpu),
		"alloc_mb": newStat("MB", alloc),
		"setup_s":  newStat("s", setupS),
	}
	return res, nil
}

// Env stamps where the numbers were taken.
type Env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	TempFS     string `json:"temp_fs"`
}

func environment() Env {
	return Env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		TempFS:     fsType(outDir()),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem under the store directories, whose fsync
// cost is most of store-write.
func fsType(dir string) string {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return "unknown"
	}
	switch uint32(fs.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(fs.Type))
}

// outDir is where a run leaves its files (trace, per-run results, store
// directories); it is relative to the benchmark's directory, which is
// the working directory, and git-ignored.
func outDir() string {
	const dir = "out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}
