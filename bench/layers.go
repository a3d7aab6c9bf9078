package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/exp"
)

// perLayer lists every per-layer metric a traced run reports: first the
// counts and span sums of the traced rep (zero where the workload does
// not reach the layer), then the probes.
var perLayer = []metricDef{
	{name: "sim.dispatches", unit: "count"},
	{name: "sim.delivered", unit: "count"},
	{name: "sim.peak_queue", unit: "count"},
	{name: "virt.time_ns", unit: "ns"},
	{name: "virt.msgs", unit: "count"},
	{name: "virt.bytes", unit: "B"},
	{name: "virt.diff_bytes", unit: "B"},
	{name: "virt.drift_records", unit: "count"},
	{name: "exp.runs", unit: "count"},
	{name: "exp.cache_hits", unit: "count"},
	{name: "exp.store_hits", unit: "count"},
	{name: "exp.worker_busy_frac", unit: "ratio"},
	{name: "store.puts", unit: "count"},
	{name: "store.hits", unit: "count"},
	{name: "store.misses", unit: "count"},
	{name: "store.bytes", unit: "B"},
	{name: "fabric.leases", unit: "count"},
	{name: "fabric.duplicates", unit: "count"},
	{name: "fabric.local_records", unit: "count"},
	{name: "fabric.useful_frac", unit: "ratio"},
	{name: "apps.run_s", unit: "s"},
	{name: "apps.seq_floor_s", unit: "s"},
	{name: "runtime.share", unit: "ratio"},
	{name: "host.ns_per_dispatch", unit: "ns"},
	{name: "exp.overhead_us_per_record", unit: "us"},
	{name: "host.peak_rss_mb", unit: "MB"},
	{name: "host.gc_cycles", unit: "count"},
	{name: "host.gc_pause_ms", unit: "ms"},
	{name: "host.mallocs", unit: "count"},
	{name: "trace.overhead_frac", unit: "ratio"},

	{name: "sim.ping_ns_per_msg", unit: "ns"},
	{name: "sim.ping_allocs_per_msg", unit: "count"},
	{name: "sim.switch_ns", unit: "ns"},
	{name: "sim.deep_inbox_ns_per_msg", unit: "ns"},
	{name: "sim.contended_ns_per_msg", unit: "ns"},
	{name: "sim.spawn_us_per_proc", unit: "us"},
	{name: "tmk.fault_us_lrc", unit: "us"},
	{name: "tmk.fault_us_hlrc", unit: "us"},
	{name: "tmk.diff_us_sparse", unit: "us"},
	{name: "tmk.diff_us_dense", unit: "us"},
	{name: "tmk.barrier_us_8", unit: "us"},
	{name: "tmk.lock_us_handoff", unit: "us"},
	{name: "proto.codec_ns_per_page", unit: "ns"},
	{name: "pvm.exchange_us", unit: "us"},
	{name: "xhpf.bcast_us_8", unit: "us"},
	{name: "spf.forkjoin_us_8", unit: "us"},
	{name: "loopc.compile_us", unit: "us"},
	{name: "loopc.interp_over_hand", unit: "ratio"},
	{name: "obs.observe_overhead_frac", unit: "ratio"},
	{name: "obs.chrome_mb_per_s", unit: "MB/s"},
	{name: "exp.noop_us_per_record", unit: "us"},
	{name: "exp.cache_hit_ns", unit: "ns"},
	{name: "exp.encode_us_per_record", unit: "us"},
	{name: "store.put_us_p50", unit: "us"},
	{name: "store.put_us_p99", unit: "us"},
	{name: "store.get_us_p50", unit: "us"},
	{name: "store.get_us_p99", unit: "us"},
	{name: "store.open_ms_1k", unit: "ms"},
	{name: "store.verify_ms_1k", unit: "ms"},
	{name: "fabric.lease_rtt_ms_p50", unit: "ms"},
	{name: "fabric.records_per_s", unit: "1/s"},
	{name: "fabric.overhead_frac", unit: "ratio"},
}

// seqHost is the host seconds of each application's sequential run, the
// least of three: a floor, so the fastest run is the one that counts.
func seqHost(specs []exp.Spec) (map[string]float64, error) {
	host := map[string]float64{}
	for _, s := range specs {
		if _, done := host[s.App]; done {
			continue
		}
		for i := 0; i < 3; i++ {
			e := exp.New()
			if _, err := e.Run(seqOf(s)); err != nil {
				return nil, err
			}
			if secs := float64(e.HostRunNanos(seqOf(s))) / 1e9; i == 0 || secs < host[s.App] {
				host[s.App] = secs
			}
		}
	}
	return host, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced is the traced run: one set-up, one untraced rep to compare
// against, one traced rep whose spans and counts give the workload's
// per-layer numbers, then the probes.
func traced(w *workload, seed int64, seconds int) (WorkloadResult, error) {
	res := WorkloadResult{Workload: w.name, Seed: seed, Seconds: seconds, Env: environment()}
	st, _, err := setUp(w, seed)
	if err != nil {
		return res, err
	}
	defer st.close()
	plain, _, att0, failed0, err := timedRep(w, st, nil)
	if err != nil {
		return res, err
	}
	tr := newTracer(fmt.Sprintf("%s/seed-%d", w.name, seed))
	cost, out, att, failed, err := timedRep(w, st, tr)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = att0+att, failed0+failed
	res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	if err := tr.writeChrome(filepath.Join(outDir(), "trace_"+w.name+".json")); err != nil {
		return res, err
	}

	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	res.PerLayer = map[string]Value{}
	set := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			fatal(fmt.Errorf("metric %q is not in the per-layer table", name))
		}
		res.PerLayer[name] = Value{Value: v, Unit: unit}
	}

	set("sim.dispatches", float64(cost.sim.Dispatches))
	set("sim.delivered", float64(cost.sim.Delivered))
	if cost.sim.Dispatches > 0 { // the peak is the process's, and set-up may have simulated
		set("sim.peak_queue", float64(cost.sim.PeakQueue))
	} else {
		set("sim.peak_queue", 0)
	}

	rows := virtRows(out.stream)
	var timeNS, msgs, bytes int64
	for _, r := range rows {
		timeNS += r.TimeNS
		msgs += r.Msgs
		bytes += r.Bytes
	}
	ref, err := loadVirt(w.virt)
	if err != nil {
		return res, err
	}
	drifted := drift(ref, rows)
	set("virt.time_ns", float64(timeNS))
	set("virt.msgs", float64(msgs))
	set("virt.bytes", float64(bytes))
	set("virt.diff_bytes", float64(tr.diffBytes))
	set("virt.drift_records", float64(drifted))
	if drifted != 0 {
		fmt.Printf("VIRTUAL DRIFT: %d records of %s differ from %s\n", drifted, w.name, virtPath(w.virt))
	}

	set("exp.runs", float64(out.exp.RunsStarted))
	set("exp.cache_hits", float64(out.exp.CacheHits))
	set("exp.store_hits", float64(out.exp.StoreHits))
	set("exp.worker_busy_frac", ratio(float64(out.exp.WorkerBusyNS), float64(out.exp.WorkerBusyNS+out.exp.WorkerIdleNS)))
	set("store.puts", float64(out.store.Puts))
	set("store.hits", float64(out.store.Hits))
	set("store.misses", float64(out.store.Misses))
	set("store.bytes", float64(out.storeLen))

	var leases, executed int64
	for _, ws := range out.fabric.Workers {
		leases += ws.Leases
		executed += ws.Records
	}
	executed += out.fabric.LocalRecords
	set("fabric.leases", float64(leases))
	set("fabric.duplicates", float64(out.fabric.DuplicateRecords))
	set("fabric.local_records", float64(out.fabric.LocalRecords))
	set("fabric.useful_frac", ratio(float64(out.fabric.RecordsDone), float64(executed)))

	// Every executed run is an app.Run span; the sequential run of the
	// same application is the numeric work no simulator change removes.
	runS, runs := tr.total("app.Run")
	run, floor := runS.Seconds(), 0.0
	if runs > 0 {
		host, err := seqHost(st.specs)
		if err != nil {
			return res, err
		}
		for _, s := range tr.spans {
			if s.Name == "app.Run" {
				floor += host[s.Arg]
			}
		}
	}
	set("apps.run_s", run)
	set("apps.seq_floor_s", floor)
	set("runtime.share", ratio(run-floor, run))
	set("host.ns_per_dispatch", ratio((run-floor)*1e9, float64(cost.sim.Dispatches)))
	// What the engine adds around the runs: the part of the streams'
	// wall time during which no application was running, per record.
	streamS, _ := tr.total("exp.StreamWith")
	set("exp.overhead_us_per_record", ratio((streamS-tr.covered("app.Run")).Seconds()*1e6, float64(out.ops)))

	set("host.gc_cycles", float64(cost.gcCycles))
	set("host.gc_pause_ms", float64(cost.gcPauseNS)/1e6)
	set("host.mallocs", float64(cost.mallocs))
	set("trace.overhead_frac", cost.wall/plain.wall-1)

	set("host.peak_rss_mb", peakRSSMB())

	if err := runProbes(set); err != nil {
		return res, fmt.Errorf("probes: %w", err)
	}
	for _, m := range perLayer {
		if _, ok := res.PerLayer[m.name]; !ok {
			return res, fmt.Errorf("per-layer metric %q was not measured", m.name)
		}
	}
	return res, nil
}
