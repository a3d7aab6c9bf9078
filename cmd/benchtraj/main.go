// Command benchtraj maintains the repository's performance trajectory:
// a pinned set of golden benchmark runs whose results are committed as
// BENCH_<n>.json (JSON-lines of internal/exp records, the sweep
// schema) and re-checked by CI on every change.
//
// The simulator is deterministic — virtual times, message counts and
// byte volumes are a pure function of the code — so the trajectory can
// be gated *exactly*: any drift in any golden number is a behavioural
// change that must be either a bug or an intentional recalibration
// (regenerate the file and commit it with the change that explains it).
//
//	benchtraj -out BENCH_6.json          # (re)build the trajectory file
//	benchtraj -gate BENCH_6.json         # re-run and compare, exit 1 on drift
//	benchtraj BENCH_5.json BENCH_6.json  # compare two files, no runs
//
// Every field compares exactly: virtual times, message counts, byte
// volumes and checksums. The golden set runs at small scale with
// observability on, so every record also carries the bd_* time
// attribution; attribution drift with unchanged time is gated too — it
// means the breakdown, not the simulation, changed.
//
// Trajectory files built with -out additionally record each run's host
// wall time as host_ns. It is informational only — host time depends
// on the machine and its load — so neither -gate nor the two-file
// comparison compares it; it exists to let successive BENCH_<n>.json
// files tell the story of the simulator's own performance alongside
// the virtual results.
//
//	benchtraj -gate BENCH_6.json -fabric host1:9190,host2:9190
//
// -fabric runs the -gate golden set through the distributed sweep
// fabric (comma-separated worker addresses, as dsmrun -fabric takes)
// instead of the local engine. Because the gate is exact, this is the
// fabric's cross-machine acceptance check: any worker whose simulation
// differs from the coordinator's build — wrong binary, wrong
// calibration, broken hardware — drifts the trajectory and fails the
// gate. The other modes refuse -fabric (exit 2).
//
// -store DIR backs the gate's engine with the persistent result store
// (see dsmrun -store): golden runs already on disk are compared
// without re-simulating, so a warm `benchtraj -gate` costs disk reads.
// The records served are the exact bytes a cold run produces — the
// gate's comparisons see no difference — except host_ns, which is 0
// for served runs (it is informational and never compared). The store
// reads as empty under a build with a different record schema version,
// so a schema change always re-executes. Written records are fsynced at
// the end of each sweep and at exit, not one by one (see dsmrun -store).
//
//	benchtraj -host BENCH_host.json -result bench/out/result.json -label "PR 17" -commit abc1234
//
// -host appends one row to the *host* trajectory — the medians of the
// host benchmark's end-to-end metrics per workload, distilled from a
// result file of `bash bench/run.sh` — and exits 1 when the row is
// worse than the previous one beyond the bounds in BENCHMARK.json, read
// from the working directory, the repository's root (see host.go).
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/proto"
	"repro/internal/store"
)

// goldenSpecs is the pinned trajectory grid: small-scale runs covering
// every runtime (DSM hand-coded and compiled, message passing
// hand-coded and compiled), both coherence protocols, an adaptive
// home-migration case, a contended-network case and a lock-heavy
// application. Editing this set renumbers the trajectory: build a new
// BENCH_<n>.json rather than regenerating the old one.
func goldenSpecs() []exp.Spec {
	type row struct {
		app        string
		version    core.Version
		procs      int
		protocol   string
		homepolicy string
		contention int
	}
	rows := []row{
		// The four ways to run a regular application (paper Figures 1/2).
		{app: "Jacobi", version: core.Tmk, procs: 4},
		{app: "Jacobi", version: core.SPF, procs: 4},
		{app: "Jacobi", version: core.XHPF, procs: 4},
		{app: "Jacobi", version: core.PVMe, procs: 4},
		// Home-based LRC next to the homeless default.
		{app: "Jacobi", version: core.Tmk, procs: 4, protocol: "hlrc"},
		{app: "Shallow", version: core.Tmk, procs: 4, protocol: "hlrc"},
		// Adaptive home migration (the PR 5 win on MGS).
		{app: "MGS", version: core.Tmk, procs: 4, protocol: "hlrc", homepolicy: "adaptive"},
		{app: "MGS", version: core.Tmk, procs: 4, protocol: "hlrc"},
		// The §5 hand optimizations.
		{app: "MGS", version: core.TmkOpt, procs: 4},
		{app: "3-D FFT", version: core.SPFOpt, procs: 4},
		// Lock-heavy and irregular behaviour.
		{app: "3-D FFT", version: core.Tmk, procs: 4},
		{app: "IGrid", version: core.Tmk, procs: 2},
		{app: "IGrid", version: core.XHPF, procs: 2},
		{app: "NBF", version: core.Tmk, procs: 4},
		// Contended network (serial NICs, 2-way backplane).
		{app: "Jacobi", version: core.Tmk, procs: 4, contention: 2},
		{app: "NBF", version: core.XHPF, procs: 4, contention: 2},
		// The loopc-compiled kernel.
		{app: "RB-SOR", version: core.XHPFGen, procs: 4},
		// Scaling spot-check.
		{app: "Jacobi", version: core.Tmk, procs: 8},
	}
	specs := make([]exp.Spec, len(rows))
	for i, r := range rows {
		pname, err := proto.Parse(r.protocol)
		if err != nil {
			panic(err) // the golden set is a compile-time constant
		}
		specs[i] = exp.Spec{
			App: r.app, Version: r.version, Procs: r.procs,
			Scale: core.SmallScale, Protocol: pname,
			Contention: r.contention,
			HomePolicy: proto.PolicyName(r.homepolicy),
		}
		specs[i] = specs[i].Normalize()
	}
	return specs
}

func main() {
	out := flag.String("out", "", "write the trajectory to this file (JSON-lines of exp records)")
	gate := flag.String("gate", "", "re-run the golden set and compare against this trajectory file")
	fabricAddrs := flag.String("fabric", "", "comma-separated fabric worker addresses: run the -gate golden set through the distributed fabric")
	storeDir := flag.String("store", "", "persistent result store directory: golden runs already on disk are served without executing")
	host := flag.String("host", "", "append one row to this host trajectory file (BENCH_host.json) from -result")
	result := flag.String("result", "bench/out/result.json", "-host: the bench/run.sh result file to distill")
	label := flag.String("label", "", "-host: the row's label (e.g. \"PR 17\")")
	commit := flag.String("commit", "", "-host: the commit the result was measured at")
	flag.Parse()

	if *fabricAddrs != "" && *gate == "" {
		fmt.Fprintln(os.Stderr, "benchtraj: -fabric takes -gate (the other modes run locally or not at all)")
		os.Exit(2)
	}
	if *host != "" {
		worse, err := hostAppend(*host, *result, *label, *commit, "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		for _, w := range worse {
			fmt.Fprintln(os.Stderr, "benchtraj: host regression:", w)
		}
		if len(worse) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchtraj: row %q appended to %s\n", *label, *host)
		return
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, exp.StoreOptions(0)); err != nil {
			fatal(err)
		}
		defer st.Close()
	}

	diffArgs := flag.Args()
	switch {
	case *out != "" && *gate == "" && len(diffArgs) == 0:
		if err := build(*out, st); err != nil {
			fatal(err)
		}
	case *gate != "" && *out == "" && len(diffArgs) == 0:
		drift, err := gateRun(*gate, *fabricAddrs, st)
		if err != nil {
			fatal(err)
		}
		if drift > 0 {
			fmt.Fprintf(os.Stderr, "benchtraj: %d golden runs drifted\n", drift)
			os.Exit(1)
		}
		fmt.Println("benchtraj: trajectory holds")
	case len(diffArgs) == 2 && *out == "" && *gate == "":
		drift, err := diffFiles(diffArgs[0], diffArgs[1])
		if err != nil {
			fatal(err)
		}
		if drift > 0 {
			fmt.Fprintf(os.Stderr, "benchtraj: %d records drifted between %s and %s\n", drift, diffArgs[0], diffArgs[1])
			os.Exit(1)
		}
		fmt.Println("benchtraj: trajectories agree")
	default:
		fmt.Fprintln(os.Stderr, "usage: benchtraj -out FILE | benchtraj -gate FILE | benchtraj OLD NEW | benchtraj -host FILE -result FILE -label L -commit C")
		os.Exit(2)
	}
}

// engine builds the observing golden-run engine, backed by the
// persistent store when one was opened.
func engine(st *store.Store) *exp.Engine {
	e := exp.New()
	e.JoinSpeedup = true
	e.Observe = true
	e.Store = st
	return e
}

// build runs the golden set and writes the trajectory file, attaching
// the informational host_ns to every record (the one writer that sets
// it; a sweep never does, keeping its output byte-identical across
// hosts). A run served from the store has no host time: its host_ns
// is 0.
func build(path string, st *store.Store) error {
	e := engine(st)
	line, _, err := golden(e, "", func(rec *exp.Record) { rec.HostNanos = e.HostRunNanos(rec.Spec) })
	if line == nil {
		return err
	}
	if werr := os.WriteFile(path, line, 0o644); werr != nil {
		return werr
	}
	return err // the failed runs, written as error records
}

// load reads a trajectory file into records indexed by spec key,
// validating every line against the sweep schema.
func load(path string) (map[string]exp.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	recs := map[string]exp.Record{}
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec, err := exp.ValidateLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		recs[rec.Key()] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// gateRun re-runs the golden set — locally, or across the fabric when
// worker addresses are given — and compares it to the committed
// trajectory, returning the number of drifted runs.
func gateRun(path string, fabricAddrs string, st *store.Store) (int, error) {
	want, err := load(path)
	if err != nil {
		return 0, err
	}
	_, fresh, err := golden(engine(st), fabricAddrs, nil)
	if fresh == nil {
		return 0, err
	}
	drift := 0
	for i, s := range goldenSpecs() {
		got := fresh[i]
		if got.Error != "" {
			drift++
			fmt.Fprintf(os.Stderr, "benchtraj: %s: run failed: %s\n", s.Key(), got.Error)
			continue
		}
		w, ok := want[s.Key()]
		if !ok {
			drift++
			fmt.Fprintf(os.Stderr, "benchtraj: %s: missing from %s (regenerate with -out)\n", s.Key(), path)
			continue
		}
		drift += compare(w, got)
	}
	return drift, nil
}

// golden streams the golden set through e — or, given fabric worker
// addresses, through a fabric.Coordinator, whose merged stream is a
// local sweep's bytes — and returns the stream and its records, parsed
// back by ValidateLine, in spec order. decorate is StreamWith's hook
// (local streams only). Run failures are error records: the stream
// and records come back with the failures joined into err. Anything
// else is an abort, with nil stream and records.
func golden(e *exp.Engine, fabricAddrs string, decorate func(*exp.Record)) ([]byte, []exp.Record, error) {
	specs := goldenSpecs()
	var buf bytes.Buffer
	var err error
	if fabricAddrs == "" {
		_, err = e.StreamWith(&buf, specs, decorate)
	} else {
		c := &fabric.Coordinator{
			Workers: strings.Split(fabricAddrs, ","),
			Speedup: true,
			Observe: true,
			Engine:  e,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "benchtraj: "+format+"\n", args...)
			},
		}
		_, err = c.Run(&buf, specs)
	}
	var recs []exp.Record
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		rec, verr := exp.ValidateLine(line)
		if verr != nil {
			return nil, nil, errors.Join(err, fmt.Errorf("golden stream: %v", verr))
		}
		recs = append(recs, rec)
	}
	if len(recs) != len(specs) {
		return nil, nil, errors.Join(err, fmt.Errorf("golden stream has %d records for %d golden specs", len(recs), len(specs)))
	}
	return buf.Bytes(), recs, err
}

// diffFiles compares two trajectory files over the keys of the old one.
func diffFiles(oldPath, newPath string) (int, error) {
	oldRecs, err := load(oldPath)
	if err != nil {
		return 0, err
	}
	newRecs, err := load(newPath)
	if err != nil {
		return 0, err
	}
	drift := 0
	for key, w := range oldRecs {
		g, ok := newRecs[key]
		if !ok {
			// A reshaped golden set is an intentional renumbering, not
			// drift: report it but compare only the shared keys.
			fmt.Fprintf(os.Stderr, "benchtraj: %s: only in %s\n", key, oldPath)
			continue
		}
		drift += compare(w, g)
	}
	return drift, nil
}

// compare reports one run's drift (0 or 1) between a committed record
// and a fresh one, printing every disagreeing field.
func compare(want, got exp.Record) int {
	bad := 0
	complain := func(field string, w, g any) {
		if bad == 0 {
			fmt.Fprintf(os.Stderr, "benchtraj: %s drifted:\n", want.Key())
		}
		bad++
		fmt.Fprintf(os.Stderr, "  %-14s %v -> %v\n", field, w, g)
	}
	if want.TimeNanos != got.TimeNanos {
		complain("time_ns", want.TimeNanos, got.TimeNanos)
	}
	if want.Msgs != got.Msgs {
		complain("msgs", want.Msgs, got.Msgs)
	}
	if want.Bytes != got.Bytes {
		complain("bytes", want.Bytes, got.Bytes)
	}
	if want.Checksum != got.Checksum {
		complain("checksum", want.Checksum, got.Checksum)
	}
	if want.SeqNanos != got.SeqNanos {
		complain("seq_ns", want.SeqNanos, got.SeqNanos)
	}
	if want.QueueNanos != got.QueueNanos {
		complain("queue_ns", want.QueueNanos, got.QueueNanos)
	}
	if want.Migrations != got.Migrations {
		complain("migrations", want.Migrations, got.Migrations)
	}
	bdPairs := [][2]int64{
		{want.BDTotalNanos, got.BDTotalNanos},
		{want.BDComputeNanos, got.BDComputeNanos},
		{want.BDFaultNanos, got.BDFaultNanos},
		{want.BDBarrierNanos, got.BDBarrierNanos},
		{want.BDLockNanos, got.BDLockNanos},
		{want.BDDataNanos, got.BDDataNanos},
		{want.BDQueueNanos, got.BDQueueNanos},
		{want.BDOtherNanos, got.BDOtherNanos},
	}
	bdNames := []string{"bd_total_ns", "bd_compute_ns", "bd_fault_ns", "bd_barrier_ns",
		"bd_lock_ns", "bd_data_ns", "bd_queue_ns", "bd_other_ns"}
	for i, p := range bdPairs {
		if p[0] != p[1] {
			complain(bdNames[i], p[0], p[1])
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
