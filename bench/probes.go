package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/loopc/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

// Probes are micro-kernels that call one layer's public functions.
// Each reports the host cost of one operation of that layer in
// isolation — a place to look when an end-to-end metric moves, never a
// share of a workload. They run in every traced run, after the traced
// rep, and are sized so that all of them fit in a few seconds: a kernel
// runs tens of milliseconds and a probe is the median of probeSamples.
const probeSamples = 5

// perOp runs kernel probeSamples times and returns the median host
// nanoseconds per operation; kernel returns how many operations it did.
func perOp(kernel func() (ops int, err error)) (float64, error) {
	var xs []float64
	for i := 0; i < probeSamples; i++ {
		t0 := time.Now()
		ops, err := kernel()
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(xs), nil
}

func ringConfig(nodes, ways int) sim.Config {
	return sim.Config{
		Procs: 8, Latency: 10 * sim.Microsecond, NanosPerByte: 30,
		SendOverhead: 5 * sim.Microsecond, RecvOverhead: 5 * sim.Microsecond,
		Nodes: nodes, BackplaneWays: ways,
	}
}

// ring is the kernel BenchmarkSimulatorEventRate times: eight processes
// pass 64-byte messages around a ring.
func ring(cfg sim.Config) func() (int, error) {
	const msgs = 16000
	return func() (int, error) {
		err := sim.New(cfg).Run(func(p *sim.Proc) {
			next, prev := (p.ID()+1)%8, (p.ID()+7)%8
			for k := 0; k < msgs/8; k++ {
				p.Send(next, 1, nil, 64, stats.KindData)
				p.Recv(prev, 1)
			}
		})
		return msgs, err
	}
}

func simProbes(set func(string, float64)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns, err := perOp(ring(ringConfig(0, 0)))
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	set("sim.ping_ns_per_msg", ns)
	set("sim.ping_allocs_per_msg", float64(m1.Mallocs-m0.Mallocs)/(probeSamples*16000))

	if ns, err = perOp(ring(ringConfig(8, 1))); err != nil {
		return err
	}
	set("sim.contended_ns_per_msg", ns)

	// Two processes leapfrog each other's clocks, so every Advance
	// passes the horizon and hands control over: a scheduler switch
	// with no message.
	const switches = 20000
	ns, err = perOp(func() (int, error) {
		cfg := ringConfig(0, 0)
		cfg.Procs = 2
		err := sim.New(cfg).Run(func(p *sim.Proc) {
			p.Advance(sim.Time(1 + p.ID()))
			for k := 0; k < switches/2; k++ {
				p.Advance(2)
			}
		})
		return switches, err
	})
	if err != nil {
		return err
	}
	set("sim.switch_ns", ns)

	// One process receives by tag, newest first, from an inbox that
	// holds up to 1024 earlier messages: the linear tag match.
	const depth = 1024
	ns, err = perOp(func() (int, error) {
		cfg := ringConfig(0, 0)
		cfg.Procs = 2
		err := sim.New(cfg).Run(func(p *sim.Proc) {
			for round := 0; round < 4; round++ {
				if p.ID() == 0 {
					for tag := 0; tag < depth; tag++ {
						p.Send(1, tag, nil, 64, stats.KindData)
					}
					p.Recv(1, depth)
				} else {
					for tag := depth - 1; tag >= 0; tag-- {
						p.Recv(0, tag)
					}
					p.Send(0, depth, nil, 8, stats.KindControl)
				}
			}
		})
		return 4 * depth, err
	})
	if err != nil {
		return err
	}
	set("sim.deep_inbox_ns_per_msg", ns)

	const clusters, procs = 64, 16
	ns, err = perOp(func() (int, error) {
		for i := 0; i < clusters; i++ {
			cfg := ringConfig(0, 0)
			cfg.Procs = procs
			if err := sim.New(cfg).Run(func(*sim.Proc) {}); err != nil {
				return 0, err
			}
		}
		return clusters * procs, nil
	})
	set("sim.spawn_us_per_proc", ns/1e3)
	return err
}

// pageKernel has node 0 dirty every page of a region (one word or the
// whole page), then a barrier, then optionally node 1 read them all.
// The operation is one page-round.
func pageKernel(p proto.Name, dense, reader bool) func() (int, error) {
	const pages, rounds = 64, 8
	return func() (int, error) {
		var sink float64
		err := tmk.NewSystem(2, model.SP2(), tmk.WithProtocol(p)).Run(func(tm *tmk.Tmk) {
			r := tmk.Alloc[float64](tm, "probe", pages*model.PageSize/8)
			step := r.ElemsPerPage()
			if dense {
				step = 1
			}
			for k := 0; k < rounds; k++ {
				if tm.ID() == 0 {
					w := r.Write(0, r.Len())
					for i := 0; i < r.Len(); i += step {
						w[i] = float64(k + 1)
					}
				}
				tm.Barrier()
				if reader && tm.ID() == 1 {
					sink += r.Read(0, r.Len())[0]
				}
				tm.Barrier()
			}
		})
		if err == nil && reader && sink == 0 {
			err = fmt.Errorf("tmk probe: reader saw no writes")
		}
		return pages * rounds, err
	}
}

func tmkProbes(set func(string, float64)) error {
	for _, k := range []struct {
		name          string
		p             proto.Name
		dense, reader bool
	}{
		// A fault: request, diff or page reply, apply.
		{"tmk.fault_us_lrc", proto.HomelessLRC, false, true},
		{"tmk.fault_us_hlrc", proto.HomeLRC, false, true},
		// The write and release path alone: twin, diff, flush to the
		// home, apply there. Nobody reads, so nothing faults.
		{"tmk.diff_us_sparse", proto.HomeLRC, false, false},
		{"tmk.diff_us_dense", proto.HomeLRC, true, false},
	} {
		ns, err := perOp(pageKernel(k.p, k.dense, k.reader))
		if err != nil {
			return err
		}
		set(k.name, ns/1e3)
	}

	const barriers = 500
	ns, err := perOp(func() (int, error) {
		return barriers, tmk.NewSystem(8, model.SP2()).Run(func(tm *tmk.Tmk) {
			for k := 0; k < barriers; k++ {
				tm.Barrier()
			}
		})
	})
	if err != nil {
		return err
	}
	set("tmk.barrier_us_8", ns/1e3)

	const acquires = 2000
	ns, err = perOp(func() (int, error) {
		return acquires, tmk.NewSystem(2, model.SP2()).Run(func(tm *tmk.Tmk) {
			for k := 0; k < acquires/2; k++ {
				tm.AcquireLock(1)
				tm.Advance(10 * sim.Microsecond)
				tm.ReleaseLock(1)
			}
		})
	})
	if err != nil {
		return err
	}
	set("tmk.lock_us_handoff", ns/1e3)

	// Eight processes' notices: contiguous runs (regular sweeps) and
	// scattered pages (cyclic vectors) in equal parts.
	var batches []proto.NoticeBatch
	pagesIn := 0
	for p := 0; p < 8; p++ {
		b := proto.NoticeBatch{Proc: p}
		for iv := int32(0); iv < 8; iv++ {
			rec := proto.IntervalRec{Interval: iv}
			for k := int32(0); k < 32; k++ {
				pg := int32(p)*4096 + iv*64 + k
				if iv%2 == 1 {
					pg = int32(p) + 8*(iv*64+k)
				}
				rec.Pages = append(rec.Pages, pg)
			}
			pagesIn += len(rec.Pages)
			b.Intervals = append(b.Intervals, rec)
		}
		batches = append(batches, b)
	}
	ns, err = perOp(func() (int, error) {
		const loops = 200
		for i := 0; i < loops; i++ {
			if _, err := proto.DecodeBatches(proto.EncodeBatches(batches)); err != nil {
				return 0, err
			}
		}
		return loops * pagesIn, nil
	})
	set("proto.codec_ns_per_page", ns)
	return err
}

func runtimeProbes(set func(string, float64)) error {
	const words, rounds = 1024, 1000
	ns, err := perOp(func() (int, error) {
		return rounds, pvm.NewSystem(2, model.SP2()).Run(func(pv *pvm.PVM) {
			send, recv := make([]float64, words), make([]float64, words)
			for k := 0; k < rounds; k++ {
				pvm.Exchange(pv, 1-pv.ID(), 1, send, recv)
			}
		})
	})
	if err != nil {
		return err
	}
	set("pvm.exchange_us", ns/1e3)

	ns, err = perOp(func() (int, error) {
		return rounds / 5, xhpf.NewSystem(8, model.SP2()).Run(func(x *xhpf.XHPF) {
			vals := make([]float64, words)
			for k := 0; k < rounds/5; k++ {
				xhpf.Bcast(x, 0, vals)
			}
		})
	})
	if err != nil {
		return err
	}
	set("xhpf.bcast_us_8", ns/1e3)

	ns, err = perOp(func() (int, error) {
		return rounds, spf.Run(tmk.NewSystem(8, model.SP2()), spf.Options{}, func(rt *spf.Runtime) {
			loop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {})
			if !rt.IsMaster() {
				rt.Serve()
				return
			}
			for k := 0; k < rounds; k++ {
				rt.ParallelDo(loop, 0, 8, spf.Block)
			}
			rt.Done()
		})
	})
	set("spf.forkjoin_us_8", ns/1e3)
	return err
}

// jacobi runs Jacobi on the mid-scale grid with the iteration count
// cut to iters (one warm-up iteration stays), so a probe pays for the
// grid the interpreter and the tracer are slow on without paying for
// twenty sweeps of it. It returns the host seconds and the result.
func jacobi(v core.Version, procs, iters int, observe bool) (float64, core.Result, error) {
	a, err := exp.AppByName("Jacobi")
	if err != nil {
		return 0, core.Result{}, err
	}
	cfg := exp.New().Config(a, exp.Spec{Procs: procs, Scale: core.MidScale})
	cfg.Iters = iters
	if observe {
		cfg.Costs.Trace = obs.New()
	}
	t0 := time.Now()
	res, err := a.Run(v, cfg)
	return time.Since(t0).Seconds(), res, err
}

// costRatio is the median over three alternating pairs of a's host
// time over b's; it also returns a's last result.
func costRatio(a, b func() (float64, core.Result, error)) (float64, core.Result, error) {
	var xs []float64
	var last core.Result
	for i := 0; i < 3; i++ {
		ta, res, err := a()
		if err != nil {
			return 0, res, err
		}
		tb, _, err := b()
		if err != nil {
			return 0, res, err
		}
		xs = append(xs, ta/tb)
		last = res
	}
	return median(xs), last, nil
}

// appProbes returns an observed Jacobi result for the encode probe.
func appProbes(set func(string, float64)) (core.Result, error) {
	const programs = 32
	ns, err := perOp(func() (int, error) {
		for seed := int64(1); seed <= programs; seed++ {
			if _, err := gen.Generate(seed).Build(); err != nil {
				return 0, err
			}
		}
		return programs, nil
	})
	if err != nil {
		return core.Result{}, err
	}
	set("loopc.compile_us", ns/1e3)

	// The compiled and the hand-written Jacobi produce identical
	// virtual results, so the ratio of host times is interpreter cost.
	run := func(v core.Version, procs, iters int, observe bool) func() (float64, core.Result, error) {
		return func() (float64, core.Result, error) { return jacobi(v, procs, iters, observe) }
	}
	ratio, _, err := costRatio(run(core.SPFGen, 2, 1, false), run(core.SPF, 2, 1, false))
	if err != nil {
		return core.Result{}, err
	}
	set("loopc.interp_over_hand", ratio)

	ratio, res, err := costRatio(run(core.Tmk, midProcs, 5, true), run(core.Tmk, midProcs, 5, false))
	if err != nil {
		return res, err
	}
	set("obs.observe_overhead_frac", ratio-1)
	var buf bytes.Buffer
	t0 := time.Now()
	if err := res.Trace.WriteChrome(&buf); err != nil {
		return res, err
	}
	set("obs.chrome_mb_per_s", float64(buf.Len())/1e6/time.Since(t0).Seconds())
	return res, nil
}

// noopApp is an application whose run costs nothing, so a sweep over it
// times the engine alone.
type noopApp struct{}

func (noopApp) Name() string                           { return "noop" }
func (noopApp) Versions() []core.Version               { return []core.Version{core.Tmk} }
func (noopApp) Config(_ core.Scale, p int) core.Config { return core.Config{Procs: p} }
func (noopApp) Run(v core.Version, c core.Config) (core.Result, error) {
	return core.Result{App: "noop", Version: v, Procs: c.Procs, Time: 1}, nil
}

// engineProbes returns one real encoded record for the store probes.
func engineProbes(set func(string, float64), res core.Result) ([]byte, error) {
	const records = 2000
	specs := make([]exp.Spec, records)
	for i := range specs {
		specs[i] = exp.Spec{App: "noop", Version: core.Tmk, Procs: i + 1, Scale: core.SmallScale}
	}
	ns, err := perOp(func() (int, error) {
		e := exp.New()
		e.Workers = 1
		e.Lookup = func(string) (core.App, error) { return noopApp{}, nil }
		_, err := e.StreamWith(io.Discard, specs, nil)
		return records, err
	})
	if err != nil {
		return nil, err
	}
	set("exp.noop_us_per_record", ns/1e3)

	e := exp.New()
	e.Lookup = func(string) (core.App, error) { return noopApp{}, nil }
	ns, err = perOp(func() (int, error) {
		const hits = 20000
		for i := 0; i < hits; i++ {
			if _, err := e.Run(specs[0]); err != nil {
				return 0, err
			}
		}
		return hits, nil
	})
	if err != nil {
		return nil, err
	}
	set("exp.cache_hit_ns", ns)

	spec := midSpec("Jacobi", core.Tmk, "", "", 0)
	var line []byte
	ns, err = perOp(func() (int, error) {
		for i := 0; i < records; i++ {
			var err error
			if line, err = json.Marshal(exp.RecordOf(spec, res, nil)); err != nil {
				return 0, err
			}
		}
		return records, nil
	})
	set("exp.encode_us_per_record", ns/1e3)
	return line, err
}

func storeProbes(set func(string, float64), line []byte) error {
	const entries = 1024 // enough that ten samples lie beyond the 99th percentile
	dir, err := os.MkdirTemp(outDir(), "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("probe|%d", i) }
	puts, gets := make([]float64, entries), make([]float64, entries)
	for i := range puts {
		t0 := time.Now()
		if err := s.Put(key(i), line); err != nil {
			return err
		}
		puts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	for i := range gets {
		t0 := time.Now()
		if _, ok := s.Get(key(i)); !ok {
			return fmt.Errorf("store probe: %s missing", key(i))
		}
		gets[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	if err := s.Close(); err != nil {
		return err
	}
	set("store.put_us_p50", quantile(puts, 0.50))
	set("store.put_us_p99", quantile(puts, 0.99))
	set("store.get_us_p50", quantile(gets, 0.50))
	set("store.get_us_p99", quantile(gets, 0.99))

	t0 := time.Now()
	if s, err = store.Open(dir, exp.StoreOptions(0)); err != nil {
		return err
	}
	set("store.open_ms_1k", time.Since(t0).Seconds()*1e3)
	t0 = time.Now()
	rep, err := s.Verify(nil)
	set("store.verify_ms_1k", time.Since(t0).Seconds()*1e3)
	if err == nil && rep.Entries != entries {
		err = fmt.Errorf("store probe: verify saw %d of %d entries", rep.Entries, entries)
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// startWorkers starts n cold loopback fabric workers of one engine
// worker each; wrap, when non-nil, wraps their handlers.
func startWorkers(n int, wrap func(http.Handler) http.Handler) (addrs []string, stop func()) {
	var srvs []*httptest.Server
	for i := 0; i < n; i++ {
		w := fabric.NewWorker(nil)
		w.Workers = 1
		h := w.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		srv := httptest.NewServer(h)
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.URL)
	}
	return addrs, func() {
		for _, srv := range srvs {
			srv.Close()
		}
	}
}

// fabricRun merges one spec list through a new coordinator.
func fabricRun(addrs []string, specs []exp.Spec) ([]byte, fabric.FleetSnapshot) {
	c := &fabric.Coordinator{Workers: addrs, Speedup: churnOpts.join, Observe: churnOpts.observe}
	var buf bytes.Buffer
	c.Run(&buf, specs) //nolint:errcheck // run failures are error records; the callers compare bytes
	return buf.Bytes(), c.Snapshot()
}

func fabricProbes(set func(string, float64)) error {
	// Every fifth spec of the churn list: the same mix, a fifth of the
	// time.
	var specs []exp.Spec
	for i, s := range churnSpecs() {
		if i%5 == 0 {
			specs = append(specs, s)
		}
	}
	var local, remote []float64
	var want []byte
	addrs, stop := []string(nil), func() {}
	defer func() { stop() }()
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		want = stream(newEngine(churnOpts, nil, nil), specs, nil)
		local = append(local, time.Since(t0).Seconds())
		stop()
		t0 = time.Now()
		addrs, stop = startWorkers(2, nil)
		got, _ := fabricRun(addrs, specs)
		remote = append(remote, time.Since(t0).Seconds())
		if !bytes.Equal(got, want) {
			return fmt.Errorf("fabric probe: merged stream differs from the local stream")
		}
	}
	l, r := median(local), median(remote)
	set("fabric.overhead_frac", r/l-1)
	set("fabric.records_per_s", float64(len(specs))/r)

	// One default-sized lease against workers that already hold the
	// results: handshake, lease, stream, merge, with no simulation.
	rtts := make([]float64, 21)
	for i := range rtts {
		t0 := time.Now()
		fabricRun(addrs, specs[:4])
		rtts[i] = time.Since(t0).Seconds() * 1e3
	}
	set("fabric.lease_rtt_ms_p50", quantile(rtts, 0.5))
	return nil
}

// runProbes runs every probe once.
func runProbes(set func(string, float64)) error {
	if err := simProbes(set); err != nil {
		return err
	}
	if err := tmkProbes(set); err != nil {
		return err
	}
	if err := runtimeProbes(set); err != nil {
		return err
	}
	res, err := appProbes(set)
	if err != nil {
		return err
	}
	line, err := engineProbes(set, res)
	if err != nil {
		return err
	}
	if err := storeProbes(set, line); err != nil {
		return err
	}
	return fabricProbes(set)
}
