// Command dsmrun is the thin CLI over the internal/exp measurement
// engine. It executes a single (application, version, processors) run —
// or a whole declarative sweep — and reports timed-region metrics:
// virtual time, speedup over the sequential baseline, message count,
// and data volume. It also prints the paper's tables (-tables).
//
// Single run:
//
//	dsmrun -app Jacobi -version tmk [-procs 8] [-scale mid] [-protocol lrc|hlrc] [-homepolicy static|firsttouch|adaptive] [-contention N] [-json]
//
// -list prints every application with the versions it runs; what each
// version is — its runtime, the version it varies — is one row of
// core.VersionTable. The -protocol flag selects the DSM coherence
// protocol for the shared-memory versions: lrc (homeless TreadMarks
// LRC, the paper's protocol and the default) or hlrc (home-based LRC).
//
// -homepolicy selects hlrc's home-placement policy: static (block-wise
// fixed homes, the default), firsttouch (a page's home moves to its
// first faulting writer), or adaptive (a page's home migrates to the
// writer dominating its flush traffic, with hysteresis). Migrating runs
// additionally report home migrations and stale-home NACK activity.
//
// -contention enables the network-contention model: N > 0 serializes
// each node's NIC and bounds the switch backplane to N concurrent
// full-rate transfers, -1 serializes the NICs over an ideal backplane,
// 0 (default) keeps the infinite-capacity interconnect. Contended runs
// additionally report the queueing delay messages spent waiting for
// busy links, split by the binding resource (out link / in link /
// backplane).
//
// With -json the result is emitted as a single JSON object (time,
// speedup, messages, bytes, checksum, queueing delay) for scripted
// benchmarking.
//
// Observability (single run):
//
//	dsmrun -app MGS -version tmk -protocol hlrc -trace out.json -breakdown
//
// -trace FILE records the run's event trace (page faults, diff and page
// traffic, barrier and lock synchronization, home migrations, NIC and
// backplane queueing) and writes it as Chrome trace_event JSON, which
// opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing:
// timeline processes are physical nodes, threads are the application
// and request-server processes. -breakdown prints the per-node
// virtual-time attribution of the timed region — compute, page-fault
// stall, barrier wait, lock wait, message wait, contention queueing —
// whose components sum exactly to each node's timed window. In sweep
// mode -breakdown instead adds the summed bd_* fields to every record.
// Observability never changes virtual times, message counts or byte
// volumes: a traced run is bit-identical to an untraced one.
//
// Persistent result store:
//
//	dsmrun -scale small -sweep "procs=1,2,4,8" -store results/ [-store-max-bytes 1073741824]
//
// -store DIR opens (creating if needed) a disk-backed record store
// shared across runs, processes and the sweep fabric: sweep specs whose
// run's record is already on disk are served without executing — the
// output bytes are identical to a cold run — and every executed run is
// written back, once, however many specs label it. Entries are keyed by
// the run's spec key plus the record schema version, so a store written
// by a build with a different record shape reads as empty rather than
// serving stale bytes; torn or
// corrupted entries are detected (per-frame CRC), skipped and
// transparently recomputed. Concurrent access is safe within a process
// and across processes (advisory file lock); sweepd workers take the
// same flag to consult their local store before executing a leased
// range. A written record is visible to every process at once and
// survives this one being killed; it is fsynced at the next commit
// point — the end of the sweep or lease, exit, or 64 ms after the
// previous fsync, whichever comes first — so a power loss costs at most
// the records since then, which the next sweep recomputes.
// The directory holds one segment file, records.log (a store written
// before that layout reads as empty; its files are left alone).
// -store-max-bytes bounds the segment, dropping the oldest-appended
// records first (0: unbounded). With -metrics-addr or -metrics-dump the
// "store" section reports hits, misses, puts, evictions, corrupt
// frames, resident bytes, and fsyncs with their total time.
//
// Host telemetry:
//
//	dsmrun -scale mid -sweep "app=Jacobi procs=1,2,4,8" -metrics-addr :9090 -progress
//
// -metrics-addr serves live host-side telemetry over HTTP for the
// duration of the process: /metrics (one JSON document, a section per
// layer — "engine": runs planned, resolved, started, completed and
// failed, cache hits and waits, worker busy/idle time; "sim", "store",
// "fabric"; and per-"app/version" host wall-time and allocation
// histograms) and /debug/pprof/*, where the simulator's own host CPU
// and heap profiles are taken (go tool pprof
// http://ADDR/debug/pprof/profile). -progress prints a sweep's progress
// line (done/total runs, hits, elapsed, ETA: the engine section, or the
// fabric section's records and ranges) to stderr once a second and when
// it ends. -metrics-dump FILE writes the same document at exit, and
// sweeplint -metrics validates either. All of it is host-side
// observability: virtual times, traffic, checksums and the sweep's
// JSON-lines bytes are identical with or without it.
//
// Differential testing:
//
//	dsmrun -gen 42        # one generated program, full differential lattice
//	dsmrun -gen 1:40      # forty programs starting at seed 1
//	dsmrun -genfile internal/loopc/testdata/failures/gen-30-min.json
//
// -gen seed[:count] generates deterministic loopc programs (see
// internal/loopc/gen) and runs each through the full differential
// lattice — the sequential interpreter plus spf-gen under both
// protocols and every home policy and xhpf-gen, at 1-8 processors —
// checking every run bitwise against the partition-aware oracle and for
// repeat determinism. -genfile does the same for one program spec read
// from a JSON file (for replaying a CI repro artifact). Divergent
// programs are delta-minimized and written to ./gen-failures/ as a
// corpus entry plus a report with a committable Go literal; the exit
// status is non-zero. Generated programs also run standalone:
// -app gen-<seed> works anywhere an application name does.
//
// Sweep mode:
//
//	dsmrun -sweep "procs=1,2,4,8 protocol=lrc,hlrc" [-workers N]
//	dsmrun -scale small -sweep app=Jacobi,RB-SOR version=tmk,xhpf procs=1,2
//	dsmrun -scale small -sweep "app=MGS procs=2,4,8 protocol=hlrc homepolicy=static,adaptive" -speedup
//
// -sweep expands the cross-product of axis values (axes: app, version,
// procs, scale, protocol, contention, homepolicy; remaining
// command-line arguments are parsed as additional axes) over the base
// flags, runs every point concurrently across host cores, and streams
// one JSON-lines record per point to stdout — in cross-product order,
// byte-identical regardless of -workers. -speedup joins every non-seq
// record with its sequential baseline (seq_ns/seq_seconds/speedup
// fields), so plots need no post-join. Run failures become records
// with an "error" field, a stderr summary ("sweep: N of M records
// failed") and a non-zero exit status.
//
// Tables:
//
//	dsmrun -tables paper -scale small            # the paper's tables and figures
//	dsmrun -tables protocols,migration -procs 4  # named tables, in the order given
//
// -tables prints the named tables of internal/harness (harness.Select),
// in the order given, each followed by a blank line; "paper" names the paper's
// own seven. A table is a spec list derived from one base spec (-procs,
// -scale, -protocol, -homepolicy, -contention) plus a render over those
// specs' records, read with -workers, -store and -metrics-* as a sweep
// reads them; a table whose records break its invariant prints nothing
// and exits 1. Every table reads records only, so a second pass over a
// warm -store starts no run. The default mid scale keeps the
// page-granularity regime at a fraction of the time; at paper scale
// Shallow's checksum is not finite, so the tables that read it fail.
// The flags of other modes (-sweep and axes, -fabric, -trace, -json,
// -speedup, -breakdown, -progress, -gen, -genfile) exit 2 before
// anything opens.
//
// Distributed sweeps (the sweep fabric):
//
//	sweepd -listen :9190                        # on each worker host
//	dsmrun -sweep "..." -fabric host1:9190,host2:9190 [-fabric-range N] [-fabric-lease 2m]
//
// -fabric shards the sweep across sweepd worker daemons listed as
// comma-separated addresses: the coordinator splits the distinct runs
// the spec list needs into leased ranges, assigns them over HTTP,
// validates the streamed records and merges them into spec order,
// relabelled and joined per spec — the stdout bytes are identical to
// a local -sweep at any worker count. A range has one holder at a time
// and a deadline (-fabric-lease); expired, crashed, or malformed leases
// are retried and reassigned, and ranges the fleet cannot finish fall
// back to local execution, so an empty or
// fully-dead fleet degrades to a plain local sweep. Workers whose
// build has a different record schema version are rejected at
// registration. The telemetry's "fabric" section is the fleet snapshot
// (per-worker leases, expiries, inflight, ETA). -fabric and -progress
// take a sweep, and -fabric-range and -fabric-lease take -fabric.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/loopc/difftest"
	"repro/internal/loopc/gen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/store"
)

func main() {
	app := flag.String("app", "Jacobi", "application name (see -list)")
	version := flag.String("version", "tmk", "version to run")
	procs := flag.Int("procs", 8, "number of simulated processors")
	scale := flag.String("scale", "mid", "problem scale: paper, mid, or small")
	protocol := flag.String("protocol", "", "DSM coherence protocol: lrc (default) or hlrc")
	homepolicy := flag.String("homepolicy", "", "hlrc home-placement policy: static (default), firsttouch, or adaptive")
	contention := flag.Int("contention", 0, "network contention: 0 off, -1 serial NICs only, N>0 serial NICs + N-way backplane")
	asJSON := flag.Bool("json", false, "emit the run result as one JSON object")
	speedup := flag.Bool("speedup", false, "join sweep records with their sequential baselines (seq_ns/speedup fields)")
	sweep := flag.String("sweep", "", `sweep axes, e.g. "procs=1,2,4,8 protocol=lrc,hlrc" (emits JSON-lines)`)
	workers := flag.Int("workers", 0, "sweep worker pool size (0: all host cores)")
	fabricAddrs := flag.String("fabric", "", "comma-separated fabric worker addresses: shard -sweep across them (merged output stays byte-identical)")
	fabricRange := flag.Int("fabric-range", 0, "runs per fabric lease (0: 4)")
	fabricLease := flag.Duration("fabric-lease", 0, "fabric lease deadline before reassignment (0: 2m)")
	trace := flag.String("trace", "", "write the run's event trace as Chrome trace_event JSON to this file (single run)")
	breakdown := flag.Bool("breakdown", false, "print the per-node time attribution (single run) or add bd_* fields (sweep)")
	storeDir := flag.String("store", "", "persistent result store directory: records are served from disk across runs and processes (and written back)")
	storeMax := flag.Int64("store-max-bytes", 0, "evict the -store directory down to this many bytes, oldest records first (0: unbounded)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/* on this address (e.g. :9090)")
	progress := flag.Bool("progress", false, "print the sweep's progress to stderr once a second")
	metricsDump := flag.String("metrics-dump", "", "write the final telemetry JSON document (what /metrics serves) to this file")
	genSpec := flag.String("gen", "", `differential-test generated programs: "seed" or "seed:count"`)
	genFile := flag.String("genfile", "", "differential-test one program spec read from this JSON file")
	list := flag.Bool("list", false, "list applications and versions")
	tablesList := flag.String("tables", "", `print these tables, comma-separated, or "paper" for the paper's (an unknown name lists them all)`)
	flag.Parse()

	// -tables is a mode of its own; its names and its refusal of the
	// other modes' flags are checked before anything opens.
	var tables []harness.Table
	if *tablesList != "" {
		if *sweep != "" || flag.NArg() > 0 || *fabricAddrs != "" || *trace != "" || *asJSON || *speedup || *breakdown || *progress || *genSpec != "" || *genFile != "" {
			fmt.Fprintln(os.Stderr, "dsmrun: -tables takes none of -sweep (or axes), -fabric, -trace, -json, -speedup, -breakdown, -progress, -gen, -genfile")
			os.Exit(2)
		}
		var err error
		if tables, err = harness.Select(*tablesList); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// So are a sweep's flags outside a sweep, and the fabric's tuning
	// without -fabric.
	sweeping := *sweep != "" || flag.NArg() > 0
	switch {
	case !sweeping && (*fabricAddrs != "" || *progress):
		fmt.Fprintln(os.Stderr, "dsmrun: -fabric and -progress take a sweep (-sweep or axes)")
		os.Exit(2)
	case *fabricAddrs == "" && (*fabricRange != 0 || *fabricLease != 0):
		fmt.Fprintln(os.Stderr, "dsmrun: -fabric-range and -fabric-lease take -fabric")
		os.Exit(2)
	}

	// The persistent result store is shared by every mode that executes
	// runs: sweeps serve records straight from it, single runs warm it.
	// The engine syncs it at the end of every sweep, ahead of the "N
	// records failed" exit, and Close syncs a single run's record; the
	// other fatal-exit paths skip both, which is safe: a Put is in the
	// page cache once it returns, so the process dying loses nothing,
	// and a power loss costs only frames that are recomputed and never
	// served torn (see package store).
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, exp.StoreOptions(*storeMax)); err != nil {
			fatal(err)
		}
		defer st.Close()
	}

	if *genSpec != "" || *genFile != "" {
		if err := runGenDiff(*genSpec, *genFile); err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		for _, a := range exp.Apps() {
			fmt.Printf("%-9s versions:", a.Name())
			for _, v := range a.Versions() {
				fmt.Printf(" %s", v)
			}
			fmt.Println()
		}
		return
	}
	pname, err := proto.Parse(*protocol)
	if err != nil {
		fatal(err)
	}
	// Unlike -protocol (resolved so output names what ran), an unset
	// -homepolicy stays empty: the field is omitted from keys and
	// records when empty, keeping pre-policy cache keys and cached
	// sweep streams valid.
	var polname proto.PolicyName
	if *homepolicy != "" {
		var err error
		if polname, err = proto.ParsePolicy(*homepolicy); err != nil {
			fatal(err)
		}
	}
	if *contention < -1 {
		fmt.Fprintf(os.Stderr, "dsmrun: invalid -contention %d (want 0, -1, or a positive backplane bound)\n", *contention)
		os.Exit(2)
	}
	base := exp.Spec{
		App:     *app,
		Version: core.Version(*version),
		Procs:   *procs,
		Scale:   core.Scale(*scale),
		// The single-run path resolves the protocol (empty -> lrc) so
		// its output names what actually ran; sweep axes do the same
		// through exp.ParseAxes.
		Protocol:   pname,
		Contention: *contention,
		HomePolicy: polname,
	}
	eng := exp.New()
	eng.Workers = *workers
	eng.Store = st
	if *metricsAddr != "" || *metricsDump != "" {
		eng.Metrics = new(expvar.Map)
	}
	// serveTelemetry starts the HTTP endpoint (if asked for);
	// dumpMetrics writes the final JSON snapshot (if asked for) and must
	// run before exiting on error too.
	serveTelemetry := func() {
		if *metricsAddr == "" {
			return
		}
		_, addr, err := metrics.StartServer(*metricsAddr, metrics.NewMux(eng.Metrics, nil))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dsmrun: serving /metrics and /debug/pprof/ on http://%s\n", addr)
	}
	dumpMetrics := func() {
		if *metricsDump == "" {
			return
		}
		f, err := os.Create(*metricsDump)
		if err != nil {
			fatal(err)
		}
		if err := metrics.WriteJSON(f, eng.Metrics); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if tables != nil {
		// Two engines over one store and one telemetry map: eng, plain,
		// and an observing one for the tables that read the time
		// attribution. Neither joins speedups.
		observed := exp.New()
		observed.Workers, observed.Store, observed.Metrics, observed.Observe = eng.Workers, st, eng.Metrics, true
		serveTelemetry()
		base.App, base.Version = "", ""
		for _, t := range tables {
			e := eng
			if t.Observe {
				e = observed
			}
			if err := t.Print(os.Stdout, e, base); err != nil {
				dumpMetrics()
				fatal(fmt.Errorf("%s: %w", t.Name, err))
			}
			fmt.Println()
		}
		dumpMetrics()
		return
	}
	eng.JoinSpeedup = *speedup
	eng.Observe = *trace != "" || *breakdown

	if sweeping {
		if *trace != "" {
			fmt.Fprintln(os.Stderr, "dsmrun: -trace is a single-run flag (a sweep has no single timeline)")
			os.Exit(2)
		}
		tokens := append(strings.Fields(*sweep), flag.Args()...)
		axes, err := exp.ParseAxes(tokens)
		if err != nil {
			fatal(err)
		}
		specs := axes.Specs(base)
		for i := range specs {
			specs[i] = specs[i].Normalize()
		}
		// With -fabric the fleet runs the sweep: the same stdout bytes
		// and StreamStats, and a progress line from the coordinator's
		// snapshot instead of the engine's counters.
		start := time.Now()
		run := func() (exp.StreamStats, error) { return eng.StreamWith(os.Stdout, specs, nil) }
		line := func() string { return sweepLine(eng.HostStats(), time.Since(start)) }
		if *fabricAddrs != "" {
			coord := &fabric.Coordinator{
				Workers:      strings.Split(*fabricAddrs, ","),
				RangeSize:    *fabricRange,
				LeaseTimeout: *fabricLease,
				Speedup:      *speedup,
				Observe:      eng.Observe,
				Engine:       eng,
				Metrics:      eng.Metrics,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "dsmrun: "+format+"\n", args...)
				},
			}
			run = func() (exp.StreamStats, error) { return coord.Run(os.Stdout, specs) }
			line = func() string { return fleetLine(coord.Snapshot()) }
		}
		serveTelemetry()
		stopProgress := func() {}
		if *progress {
			stopProgress = reportProgress(line)
		}
		stats, err := run()
		stopProgress()
		dumpMetrics()
		if stats.Failed > 0 {
			fmt.Fprintf(os.Stderr, "dsmrun: sweep: %d of %d records failed\n", stats.Failed, stats.Records)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	serveTelemetry()
	defer dumpMetrics()
	res, err := eng.Run(base.Normalize())
	if err != nil {
		fatal(err)
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		if err := res.Trace.WriteChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dsmrun: wrote %d trace events to %s (open in ui.perfetto.dev)\n", res.Trace.Len(), *trace)
	}
	var seq core.Result
	haveSeq := false
	if base.Version != core.Seq {
		if seq, err = eng.Run(exp.SeqSpecOf(base)); err == nil {
			haveSeq = true
		}
	}

	if *asJSON {
		printJSON(base.Normalize(), res, seq, haveSeq)
		return
	}

	fmt.Printf("app=%s version=%s procs=%d scale=%s", res.App, res.Version, res.Procs, *scale)
	if res.Protocol != "" {
		fmt.Printf(" protocol=%s", res.Protocol)
	}
	if res.HomePolicy != "" && res.HomePolicy != proto.StaticPolicy {
		fmt.Printf(" homepolicy=%s", res.HomePolicy)
	}
	fmt.Println()
	fmt.Printf("time      = %v\n", res.Time)
	fmt.Printf("messages  = %d\n", res.Stats.TotalMsgs())
	fmt.Printf("data      = %d KB\n", res.Stats.TotalKB())
	fmt.Printf("checksum  = %g\n", res.Checksum)
	fmt.Printf("breakdown = %s\n", res.Stats.String())
	if *contention != 0 {
		fmt.Printf("queueing  = %v over %d delayed messages (out %v, in %v, backplane %v)\n",
			res.QueueTime(), res.Stats.TotalQueuedMsgs(),
			res.QueueTimeBy(stats.QueueOut), res.QueueTimeBy(stats.QueueIn), res.QueueTimeBy(stats.QueueBackplane))
	}
	if res.Migrations+res.StaleForwards+res.RedirectedFlushBytes > 0 {
		fmt.Printf("migration = %d home moves, %d stale-home NACKs, %d redirected flush bytes (whole run)\n",
			res.Migrations, res.StaleForwards, res.RedirectedFlushBytes)
	}
	if haveSeq {
		fmt.Printf("speedup   = %.2f (seq %v)\n", res.Speedup(seq.Time), seq.Time)
	}
	if *breakdown {
		fmt.Println()
		printBreakdown(os.Stdout, res)
	}
}

// reportProgress prints line() to stderr once a second until the
// returned stop is called, which prints it a last time.
func reportProgress(line func() string) (stop func()) {
	tick, quit := time.NewTicker(time.Second), make(chan struct{})
	go func() {
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				fmt.Fprintln(os.Stderr, line())
			}
		}
	}()
	return func() {
		quit <- struct{}{} // received between lines, never during one
		tick.Stop()
		fmt.Fprintln(os.Stderr, line())
	}
}

// sweepLine renders a local sweep's progress. The ETA extrapolates from
// executed runs only: averaging in the all-but-free store and cache
// hits would collapse it toward zero on a half-warm sweep.
func sweepLine(hs exp.HostStats, elapsed time.Duration) string {
	line := fmt.Sprintf("sweep: %d/%d runs", hs.RunsResolved, hs.RunsPlanned)
	if hs.RunsFailed > 0 {
		line += fmt.Sprintf(", %d failed", hs.RunsFailed)
	}
	line += fmt.Sprintf(", hits %d mem/%d disk, elapsed %s", hs.CacheHits, hs.StoreHits, elapsed.Round(100*time.Millisecond))
	if hs.RunsCompleted > 0 && hs.RunsResolved < hs.RunsPlanned {
		eta := elapsed / time.Duration(hs.RunsCompleted) * time.Duration(hs.RunsPlanned-hs.RunsResolved)
		line += fmt.Sprintf(", eta %s", eta.Round(100*time.Millisecond))
	}
	return line
}

// fleetLine renders a fabric sweep's progress.
func fleetLine(snap fabric.FleetSnapshot) string {
	live := 0
	for _, ws := range snap.Workers {
		if !ws.Retired {
			live++
		}
	}
	line := fmt.Sprintf("fabric: %d/%d records, %d/%d ranges, %d workers", snap.RecordsDone, snap.RecordsTotal, snap.RangesDone, snap.RangesTotal, live)
	if snap.RecordsFailed > 0 {
		line += fmt.Sprintf(", %d failed", snap.RecordsFailed)
	}
	if snap.LocalRecords > 0 {
		line += fmt.Sprintf(", %d local", snap.LocalRecords)
	}
	line += fmt.Sprintf(", elapsed %s", time.Duration(snap.ElapsedSeconds*1e9).Round(100*time.Millisecond))
	if snap.EtaSeconds > 0 {
		line += fmt.Sprintf(", eta %s", time.Duration(snap.EtaSeconds*1e9).Round(100*time.Millisecond))
	}
	return line
}

// printBreakdown renders one result's per-node time attribution (plus
// the all-node sum) as a fixed-width table.
func printBreakdown(w io.Writer, res core.Result) {
	if res.Breakdown == nil {
		fmt.Fprintln(w, "(no breakdown: run without observability)")
		return
	}
	fmt.Fprintf(w, "%-5s | %12s | %12s %12s %12s %12s %12s %12s %12s\n",
		"node", "total ms", "compute", "fault", "barrier", "lock", "data", "queue", "other")
	fmt.Fprintln(w, "---------------------------------------------------------------------------------------------------------------------------")
	row := func(label string, b obs.NodeBreakdown) {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		fmt.Fprintf(w, "%-5s | %12.3f | %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f\n",
			label, ms(b.Total), ms(b.Compute), ms(b.Fault), ms(b.Barrier),
			ms(b.Lock), ms(b.Data), ms(b.Queue), ms(b.Other))
	}
	for _, b := range res.Breakdown {
		row(fmt.Sprintf("%d", b.Node), b)
	}
	row("sum", obs.Sum(res.Breakdown))
}

// printJSON emits the single-run record, joined with the sequential
// baseline when one was computable (the sweep schema plus
// seq_ns/seq_seconds/speedup).
func printJSON(s exp.Spec, res, seq core.Result, haveSeq bool) {
	rec := exp.RecordOf(s, res, nil)
	if haveSeq {
		rec.JoinSeq(seq)
	}
	line, err := exp.AppendRecord(nil, &rec)
	if err == nil {
		_, err = os.Stdout.Write(append(line, '\n'))
	}
	if err != nil {
		fatal(err)
	}
}

// runGenDiff is the -gen/-genfile mode: run generated programs through
// the full differential lattice, minimizing and saving any divergence.
func runGenDiff(genSpec, genFile string) error {
	var specs []*gen.ProgramSpec
	switch {
	case genSpec != "" && genFile != "":
		return fmt.Errorf("dsmrun: -gen and -genfile are mutually exclusive")
	case genFile != "":
		data, err := os.ReadFile(genFile)
		if err != nil {
			return err
		}
		ps, err := gen.Parse(data)
		if err != nil {
			return fmt.Errorf("%s: %w", genFile, err)
		}
		specs = append(specs, ps)
	default:
		seedPart, countPart, hasCount := strings.Cut(genSpec, ":")
		var seed, count int64 = 0, 1
		if _, err := fmt.Sscanf(seedPart, "%d", &seed); err != nil || seed < 0 {
			return fmt.Errorf("dsmrun: invalid -gen %q (want seed or seed:count)", genSpec)
		}
		if hasCount {
			if _, err := fmt.Sscanf(countPart, "%d", &count); err != nil || count < 1 {
				return fmt.Errorf("dsmrun: invalid -gen %q (want seed or seed:count)", genSpec)
			}
		}
		for i := int64(0); i < count; i++ {
			specs = append(specs, gen.Generate(seed+i))
		}
	}

	opts := difftest.Options{}
	failed := 0
	for _, ps := range specs {
		if err := ps.Check(); err != nil {
			return err
		}
		divs, err := difftest.Check(ps, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", ps.Name, err)
		}
		if len(divs) == 0 {
			fmt.Printf("%-8s ok (n=%d nests=%d iters=%d)\n", ps.Name, ps.N, len(ps.Nests), ps.Iters)
			continue
		}
		failed++
		for _, d := range divs {
			fmt.Printf("%s\n", d)
		}
		min := difftest.Minimize(ps, func(c *gen.ProgramSpec) bool {
			d, err := difftest.Check(c, difftest.Options{Repeats: 1})
			return err == nil && len(d) > 0
		})
		minDivs, _ := difftest.Check(min, difftest.Options{Repeats: 1})
		path, err := difftest.WriteRepro("gen-failures", min, minDivs)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s DIVERGED — minimized repro written to %s\n", ps.Name, path)
	}
	if failed > 0 {
		return fmt.Errorf("dsmrun: %d of %d generated programs diverged", failed, len(specs))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
