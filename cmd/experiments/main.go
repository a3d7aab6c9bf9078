// Command experiments regenerates the paper's tables and figures. It
// is a thin rendering client of the internal/exp sweep engine: each
// experiment declares its (application × version × procs × protocol)
// grid as a spec list, the engine executes the grid concurrently
// across host cores (bounded by -workers) behind a shared result
// cache, and the tables are formatted from the engine's output.
//
// Usage:
//
//	experiments [-procs 8] [-scale paper|mid|small] [-protocol lrc|hlrc] [-workers N] [-only table1,figure1,...]
//
// With no -only flag every experiment runs (Table 1, Figures 1-2,
// Tables 2-3, the §5 hand optimizations, and the §2.3 interface
// ablation). Paper scale matches Table 1's data sets and takes a few
// minutes; mid scale preserves the page-granularity regime at a fraction
// of the time. The protocols experiment (-only protocols) compares the
// homeless TreadMarks LRC against the home-based LRC on every
// application at 1-8 nodes; -protocol selects the coherence protocol the
// other experiments run under (default: lrc, the paper's). The compiler
// experiment (-only compiler) runs the internal/loopc-generated
// spf-gen/xhpf-gen versions next to their hand-coded counterparts.
//
// The migration experiment (-only migration) sweeps the home-based
// protocol's home-placement policies (static, firsttouch, adaptive) at
// 1-8 nodes for MGS, Jacobi and Shallow, reporting flush traffic and
// migration counts; -homepolicy selects the policy every *other*
// experiment runs under when combined with -protocol hlrc.
//
// The gendiff experiment (-only gendiff) runs deterministic generated
// loop-nest programs (internal/loopc/gen) through every compiled
// backend, protocol and home policy, checking each run bitwise against
// the partition-aware oracle and for repeat determinism. Any divergence
// fails the experiment; dsmrun -gen <seed> replays and minimizes it.
//
// The breakdown experiment (-only breakdown) runs every figure version
// of every application with observability on and prints the per-node
// virtual-time attribution — compute vs page-fault stall vs barrier,
// lock and message waits vs contention queueing — the event-trace
// counterpart of the paper's §5/§6 overhead analysis. It runs on its
// own observing engine, so the other experiments' cache stays
// trace-free.
//
// The contention experiment (-only contention) sweeps the serial-NIC /
// backplane contention model at 1-8 nodes for Jacobi, IGrid and NBF
// under both protocols and all three runtimes. Independently,
// -contention N makes *every* experiment run on the contended SP/2:
// N > 0 bounds the backplane to N concurrent full-rate transfers,
// N = -1 serializes the NICs over an ideal backplane, 0 (default) keeps
// the infinite-capacity interconnect.
//
// -metrics-addr serves the shared engine's host-side telemetry
// (/metrics in Prometheus text format, /debug/pprof/*) over HTTP while
// the experiments run, and -metrics-dump writes a final JSON snapshot
// of the registry; see cmd/dsmrun for the metric families. Telemetry
// never changes experiment output.
//
// -store DIR backs the shared engine with the persistent result store
// (see dsmrun -store): grid points already on disk render without
// re-simulating, and fresh runs are written back, so re-rendering
// tables — or running further experiments over the same grid — costs
// only the disk reads. Tables are byte-identical served or executed;
// the store reads as empty under a build whose record schema version
// differs. Written records are fsynced at the end of each sweep and at
// exit, not one by one (see dsmrun -store). -store-max-bytes bounds the
// directory (LRU eviction; 0: unbounded).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/store"
)

func main() {
	procs := flag.Int("procs", 8, "number of simulated processors")
	scale := flag.String("scale", "paper", "problem scale: paper, mid, or small")
	protocol := flag.String("protocol", "", "DSM coherence protocol: lrc (default) or hlrc")
	homepolicy := flag.String("homepolicy", "", "hlrc home-placement policy: static (default), firsttouch, or adaptive")
	contention := flag.Int("contention", 0, "network contention: 0 off, -1 serial NICs only, N>0 serial NICs + N-way backplane")
	workers := flag.Int("workers", 0, "sweep worker pool size (0: all host cores)")
	only := flag.String("only", "", "comma-separated experiments (table1,figure1,table2,figure2,table3,handopt,interface,scalability,protocols,compiler,contention,migration,gendiff,breakdown)")
	storeDir := flag.String("store", "", "persistent result store directory: table records are served from disk across runs (and written back)")
	storeMax := flag.Int64("store-max-bytes", 0, "evict the -store directory down to this many bytes, LRU first (0: unbounded)")
	metricsAddr := flag.String("metrics-addr", "", "serve host-side telemetry (/metrics, /debug/pprof/*) on this address while the experiments run")
	metricsDump := flag.String("metrics-dump", "", "write a final JSON snapshot of the metrics registry to this file")
	flag.Parse()

	table := map[string]func(w *os.File, r *harness.Runner) error{
		"table1":    func(w *os.File, r *harness.Runner) error { return harness.Table1(w, r) },
		"figure1":   func(w *os.File, r *harness.Runner) error { return harness.Figure1(w, r) },
		"table2":    func(w *os.File, r *harness.Runner) error { return harness.Table2(w, r) },
		"figure2":   func(w *os.File, r *harness.Runner) error { return harness.Figure2(w, r) },
		"table3":    func(w *os.File, r *harness.Runner) error { return harness.Table3(w, r) },
		"handopt":   func(w *os.File, r *harness.Runner) error { return harness.HandOpt(w, r) },
		"interface": func(w *os.File, r *harness.Runner) error { return harness.Interface(w, r) },
		"scalability": func(w *os.File, r *harness.Runner) error {
			return harness.Scalability(w, r, "Jacobi", []int{2, 4, 8})
		},
		"protocols":  func(w *os.File, r *harness.Runner) error { return harness.Protocols(w, r) },
		"compiler":   func(w *os.File, r *harness.Runner) error { return harness.Compiler(w, r) },
		"contention": func(w *os.File, r *harness.Runner) error { return harness.Contention(w, r) },
		"migration":  func(w *os.File, r *harness.Runner) error { return harness.Migration(w, r) },
		"gendiff":    func(w *os.File, r *harness.Runner) error { return harness.GenDiff(w, r) },
		"breakdown": func(w *os.File, r *harness.Runner) error {
			// A separate observing runner: traces are per-run state the
			// shared cache must not carry for the other experiments. Its
			// Metrics stays nil — the registry's func-backed families
			// already belong to the main runner's engine.
			or := harness.NewRunner(r.Procs, r.Scale)
			or.Protocol, or.HomePolicy = r.Protocol, r.HomePolicy
			or.Costs, or.App, or.Workers = r.Costs, r.App, r.Workers
			or.Observe = true
			return harness.Breakdown(w, or)
		},
	}
	order := []string{"table1", "figure1", "table2", "figure2", "table3", "handopt", "interface"}
	want := order
	if *only != "" {
		want = strings.Split(*only, ",")
	}
	// Every name is checked before anything opens or runs: a typo late
	// in the list must not cost the experiments before it.
	for _, name := range want {
		if _, ok := table[strings.TrimSpace(name)]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s, scalability, protocols, compiler, contention, migration, gendiff, breakdown)\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
	}

	pname, err := proto.Parse(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	polname, err := proto.ParsePolicy(*homepolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r := harness.NewRunner(*procs, core.Scale(*scale))
	r.Protocol = pname
	if polname != proto.StaticPolicy {
		r.HomePolicy = polname
	}
	r.Workers = *workers
	if *contention < -1 {
		fmt.Fprintf(os.Stderr, "experiments: invalid -contention %d (want 0, -1, or a positive backplane bound)\n", *contention)
		os.Exit(2)
	}
	r.Costs = r.Costs.WithContention(*contention)
	if *metricsAddr != "" || *metricsDump != "" {
		r.Metrics = metrics.NewRegistry()
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, exp.StoreOptions(*storeMax))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
		r.Store = st
	}
	if *metricsAddr != "" {
		_, addr, err := metrics.StartServer(*metricsAddr, metrics.NewMux(r.Metrics, nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: serving /metrics and /debug/pprof/ on http://%s\n", addr)
	}
	if *metricsDump != "" {
		defer func() {
			f, err := os.Create(*metricsDump)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(r.Metrics.Snapshot()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}
	run := func(name string, f func(w *os.File, r *harness.Runner) error) {
		if err := f(os.Stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	for _, name := range want {
		run(name, table[strings.TrimSpace(name)])
	}
}
