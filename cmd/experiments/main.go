// Command experiments regenerates the paper's tables and figures. Each
// table (internal/harness) is a spec list derived from one base spec —
// the -procs, -scale, -protocol, -homepolicy and -contention flags —
// plus a render over the records of those specs, which the
// internal/exp engine reads concurrently across host cores (bounded by
// -workers), each distinct run once.
//
// Usage:
//
//	experiments [-procs 8] [-scale paper|mid|small] [-protocol lrc|hlrc] [-workers N] [-only table1,figure1,...]
//
// With no -only flag the paper's tables print (Table 1, Figures 1-2,
// Tables 2-3, the §5 hand optimizations, and the §2.3 interface
// ablation). Paper scale matches Table 1's data sets and takes a few
// minutes; mid scale preserves the page-granularity regime at a fraction
// of the time. The protocols experiment (-only protocols) compares the
// homeless TreadMarks LRC against the home-based LRC on every
// application at 1-8 nodes; -protocol selects the coherence protocol the
// other experiments run under (default: lrc, the paper's). The compiler
// experiment (-only compiler) runs the internal/loopc-generated
// spf-gen/xhpf-gen versions next to their hand-coded counterparts.
// Tables that vary what a checksum must not depend on (protocols,
// contention, migration, compiler) refuse to print when it differs.
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
// The breakdown experiment (-only breakdown) prints the per-node
// virtual-time attribution of every figure version of every application
// — compute vs page-fault stall vs barrier, lock and message waits vs
// contention queueing — the event-trace counterpart of the paper's
// §5/§6 overhead analysis. It reads observed records from a second,
// observing engine over the same store and registry.
//
// The contention experiment (-only contention) sweeps the serial-NIC /
// backplane contention model at 1-8 nodes for Jacobi, IGrid and NBF
// under both protocols and all three runtimes. Independently,
// -contention N makes *every* experiment run on the contended SP/2:
// N > 0 bounds the backplane to N concurrent full-rate transfers,
// N = -1 serializes the NICs over an ideal backplane, 0 (default) keeps
// the infinite-capacity interconnect.
//
// -metrics-addr serves the engines' host-side telemetry (/metrics in
// Prometheus text format, /debug/pprof/*) over HTTP while the
// experiments run, and -metrics-dump writes a final JSON snapshot of
// the registry; see cmd/dsmrun for the metric families. Telemetry
// never changes experiment output.
//
// -store DIR backs the engines with the persistent result store (see
// dsmrun -store): fresh runs are written back, and a table whose runs
// are all on disk prints without simulating, byte-identical to a cold
// pass. The exception is migration: its flush column is
// Stats.BytesOf(KindDiff), which no record carries, so it sweeps its
// grid through the engine's Result path, which always simulates. The
// store reads as empty under a build whose record schema version
// differs. Written records are fsynced at the end of each table and at
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
	var names []string
	named := map[string]harness.Table{}
	for _, t := range harness.Tables {
		names = append(names, t.Name)
		named[t.Name] = t
	}
	procs := flag.Int("procs", 8, "number of simulated processors")
	scale := flag.String("scale", "paper", "problem scale: paper, mid, or small")
	protocol := flag.String("protocol", "", "DSM coherence protocol: lrc (default) or hlrc")
	homepolicy := flag.String("homepolicy", "", "hlrc home-placement policy: static (default), firsttouch, or adaptive")
	contention := flag.Int("contention", 0, "network contention: 0 off, -1 serial NICs only, N>0 serial NICs + N-way backplane")
	workers := flag.Int("workers", 0, "sweep worker pool size (0: all host cores)")
	only := flag.String("only", "", "comma-separated experiments ("+strings.Join(names, ",")+")")
	storeDir := flag.String("store", "", "persistent result store directory: table records are served from disk across runs (and written back)")
	storeMax := flag.Int64("store-max-bytes", 0, "evict the -store directory down to this many bytes, LRU first (0: unbounded)")
	metricsAddr := flag.String("metrics-addr", "", "serve host-side telemetry (/metrics, /debug/pprof/*) on this address while the experiments run")
	metricsDump := flag.String("metrics-dump", "", "write a final JSON snapshot of the metrics registry to this file")
	flag.Parse()

	var want []harness.Table
	if *only == "" {
		for _, t := range harness.Tables {
			if t.Paper {
				want = append(want, t)
			}
		}
	} else {
		// Every name is checked before anything opens or runs: a typo
		// late in the list must not cost the experiments before it.
		for _, name := range strings.Split(*only, ",") {
			t, ok := named[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", name, strings.Join(names, ", "))
				os.Exit(2)
			}
			want = append(want, t)
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
	if *contention < -1 {
		fmt.Fprintf(os.Stderr, "experiments: invalid -contention %d (want 0, -1, or a positive backplane bound)\n", *contention)
		os.Exit(2)
	}
	base := exp.Spec{Procs: *procs, Scale: core.Scale(*scale), Protocol: pname, HomePolicy: polname, Contention: *contention}

	// Two engines over one store and one registry: the observing one
	// serves the tables that read the time attribution, whose runs
	// carry traces the others' need not. Observed records are stored
	// under their own keys.
	eng, observed := exp.New(), exp.New()
	observed.Observe = true
	var reg *metrics.Registry
	if *metricsAddr != "" || *metricsDump != "" {
		reg = metrics.NewRegistry()
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, exp.StoreOptions(*storeMax))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
	}
	for _, e := range []*exp.Engine{eng, observed} {
		e.Workers, e.Metrics, e.Store = *workers, reg, st
	}
	if *metricsAddr != "" {
		_, addr, err := metrics.StartServer(*metricsAddr, metrics.NewMux(reg, nil))
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
			if err := enc.Encode(reg.Snapshot()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}
	for _, t := range want {
		e := eng
		if t.Observe {
			e = observed
		}
		if err := t.Print(os.Stdout, e, base); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
