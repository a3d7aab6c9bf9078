package repro

// One benchmark per table and figure of the paper (a figure and the
// traffic table of the same runs share one), plus the ablations
// DESIGN.md calls out. Each sub-benchmark executes the experiment and
// reports the quantities the paper tabulates as custom metrics:
//
//	speedup    8-processor speedup (Figures 1 and 2)
//	msgs       total messages in the timed region (Tables 2 and 3)
//	data-KB    data volume in KB (Tables 2 and 3)
//	seq-sec    sequential virtual time in seconds (Table 1)
//
// Benchmarks run at mid scale by default (page-granularity-preserving
// reduced sizes; see core.MidScale) so `go test -bench=.` finishes in
// minutes. REPRO_BENCH_SCALE=paper in the environment runs the full
// Table 1 data sets.

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tmk"
)

const benchProcs = 8

func benchScale() core.Scale {
	if os.Getenv("REPRO_BENCH_SCALE") == "paper" {
		return core.PaperScale
	}
	return core.MidScale
}

// benchSpec is one run at the benchmark scale.
func benchSpec(app core.App, v core.Version, procs int) exp.Spec {
	return exp.Spec{App: app.Name(), Version: v, Procs: procs, Scale: benchScale()}.Normalize()
}

// benchEngine serves reportRun the sequential baseline every speedup
// divides by: each application's runs once, then hits the cache.
var benchEngine = exp.New()

// reportRun measures one cell of a figure or traffic table. The version
// under test runs on a fresh engine every iteration — never the
// single-flight cache — so host-ms is the host time of one run of that
// cell; the baseline is not part of it.
func reportRun(b *testing.B, app core.App, v core.Version) {
	b.Helper()
	seq, err := benchEngine.Run(benchSpec(app, core.Seq, 1))
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = exp.New().Run(benchSpec(app, v, benchProcs))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup(seq.Time), "speedup")
	b.ReportMetric(float64(res.Stats.TotalMsgs()), "msgs")
	b.ReportMetric(float64(res.Stats.TotalKB()), "data-KB")
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "host-ms")
}

// BenchmarkTable1SequentialTimes regenerates Table 1. Every iteration
// runs on a fresh engine — no single-flight cache hit —
// so host-ms is the host time of one sequential run: the floor under
// every cell of the paper's tables.
func BenchmarkTable1SequentialTimes(b *testing.B) {
	for _, a := range exp.PaperApps() {
		b.Run(a.Name(), func(b *testing.B) {
			var seq core.Result
			var err error
			for i := 0; i < b.N; i++ {
				seq, err = exp.New().Run(benchSpec(a, core.Seq, 1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seq.Time.Seconds(), "seq-sec")
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "host-ms")
		})
	}
}

func benchFigure(b *testing.B, apps []string) {
	for _, name := range apps {
		a, err := exp.AppByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range harness.FigureVersions {
			b.Run(name+"/"+string(v), func(b *testing.B) { reportRun(b, a, v) })
		}
	}
}

// BenchmarkFigure1Table2Regular regenerates Figure 1 and Table 2 from
// one run per cell: the regular applications' speedups (speedup) and
// their message and data totals (msgs, data-KB), four versions each.
func BenchmarkFigure1Table2Regular(b *testing.B) {
	benchFigure(b, harness.RegularApps)
}

// BenchmarkFigure2Table3Irregular regenerates Figure 2 and Table 3, the
// same quantities for the irregular applications.
func BenchmarkFigure2Table3Irregular(b *testing.B) {
	benchFigure(b, harness.IrregularApps)
}

// BenchmarkSection5HandOptimizations regenerates the §5 hand-optimized
// variants next to their baselines.
func BenchmarkSection5HandOptimizations(b *testing.B) {
	for _, c := range harness.HandOptCases {
		a, err := exp.AppByName(c.App)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.App+"/baseline", func(b *testing.B) { reportRun(b, a, core.Describe(c.Opt).Varies) })
		b.Run(c.App+"/optimized", func(b *testing.B) { reportRun(b, a, c.Opt) })
	}
}

// BenchmarkSection23InterfaceAblation regenerates the §2.3 interface
// comparison: the original 8(n-1)-message fork-join scheme against the
// improved 2(n-1) interface, on Jacobi.
func BenchmarkSection23InterfaceAblation(b *testing.B) {
	a, err := exp.AppByName("Jacobi")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("original", func(b *testing.B) { reportRun(b, a, core.SPFOld) })
	b.Run("improved", func(b *testing.B) { reportRun(b, a, core.SPF) })
}

// BenchmarkSection8BarrierReduce is the §8 extension ablation: a global
// sum implemented the SPF way (lock-protected shared variable) against
// the proposed barrier-merged reduction.
func BenchmarkSection8BarrierReduce(b *testing.B) {
	const rounds = 50
	run := func(b *testing.B, barrierMerged bool) {
		var elapsed sim.Time
		var msgs int64
		for i := 0; i < b.N; i++ {
			sys := tmk.NewSystem(benchProcs, model.SP2())
			err := sys.Run(func(tm *tmk.Tmk) {
				shared := tmk.Alloc[float64](tm, "sum", 8)
				for k := 0; k < rounds; k++ {
					part := float64(tm.ID() + k)
					if barrierMerged {
						tm.BarrierReduceSum([]float64{part})
					} else {
						tm.AcquireLock(1)
						w := shared.Write(0, 1)
						w[0] += part
						tm.ReleaseLock(1)
						tm.Barrier()
					}
				}
				if tm.ID() == 0 {
					elapsed = tm.Now()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			msgs = sys.Stats().TotalMsgs()
		}
		b.ReportMetric(elapsed.Seconds()*1e3, "vtime-ms")
		b.ReportMetric(float64(msgs), "msgs")
	}
	b.Run("lock-based", func(b *testing.B) { run(b, false) })
	b.Run("barrier-merged", func(b *testing.B) { run(b, true) })
}

// BenchmarkCompiledVsHand runs the internal/loopc-generated versions
// next to their hand-coded counterparts on Jacobi: spf vs spf-gen and
// xhpf vs xhpf-gen. The metrics (msgs, data-KB, speedup) come out
// identical — the front end emits the same access ranges and the same
// communication sequence a careful hand coder writes, which is the
// point of the compiler experiment.
func BenchmarkCompiledVsHand(b *testing.B) {
	a, err := exp.AppByName("Jacobi")
	if err != nil {
		b.Fatal(err)
	}
	for _, pair := range harness.CompiledPairs() {
		for _, v := range pair {
			b.Run(string(v), func(b *testing.B) { reportRun(b, a, v) })
		}
	}
}

// BenchmarkProtocolComparison runs every application's representative
// DSM version under each coherence protocol (homeless TreadMarks LRC
// and home-based LRC) at 1-8 nodes, reporting per-protocol virtual
// time, message count and data volume. The numerical results are
// bit-identical across protocols (asserted by the equivalence tests in
// internal/harness); these metrics are the part that differs.
func BenchmarkProtocolComparison(b *testing.B) {
	for _, a := range exp.PaperApps() {
		v := harness.DSMVersionOf(a)
		for _, procs := range harness.ProtocolProcCounts {
			for _, p := range proto.Names() {
				b.Run(fmt.Sprintf("%s/%s/p%d/%s", a.Name(), v, procs, p), func(b *testing.B) {
					e, s := exp.New(), benchSpec(a, v, procs)
					s.Protocol = p
					var res core.Result
					var err error
					for i := 0; i < b.N; i++ {
						res, err = e.Run(s)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(res.Time.Seconds()*1e3, "vtime-ms")
					b.ReportMetric(float64(res.Stats.TotalMsgs()), "msgs")
					b.ReportMetric(float64(res.Stats.TotalKB()), "data-KB")
				})
			}
		}
	}
}

// BenchmarkHomePolicy sweeps hlrc's home-placement policies at 8 nodes
// on the migration experiment's applications, reporting virtual time,
// flush traffic (the bytes home placement can move) and whole-run home
// migrations. At mid scale MGS's cyclic vectors are one page each, so
// the adaptive policy repoints nearly every page to its owner and the
// flush traffic collapses; Jacobi's and Shallow's block layouts already
// match the static homes, and a good policy leaves them alone.
func BenchmarkHomePolicy(b *testing.B) {
	for _, name := range harness.MigrationApps {
		a, err := exp.AppByName(name)
		if err != nil {
			b.Fatal(err)
		}
		v := harness.DSMVersionOf(a)
		for _, pol := range proto.PolicyNames() {
			b.Run(fmt.Sprintf("%s/%s/%s", name, v, pol), func(b *testing.B) {
				e, s := exp.New(), benchSpec(a, v, benchProcs)
				s.Protocol, s.HomePolicy = proto.HomeLRC, pol
				var res core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = e.Run(s)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Time.Seconds()*1e3, "vtime-ms")
				b.ReportMetric(float64(res.Stats.BytesOf(stats.KindDiff))/1024, "flush-KB")
				b.ReportMetric(float64(res.Migrations), "migrations")
			})
		}
	}
}

// BenchmarkContention sweeps the network-contention model at 8 nodes:
// each application/runtime pair runs on the ideal infinite-capacity
// interconnect, with serial NICs, and with the backplane bounded to one
// full-rate transfer. The irregular applications' XHPF broadcast storms
// accumulate queueing delay (queue-ms) super-linearly in node count,
// while Jacobi's pairwise halo exchanges barely queue — the contention
// experiment's headline, as a benchmark.
func BenchmarkContention(b *testing.B) {
	sweep := []struct {
		name string
		ways int
	}{{"ideal", 0}, {"nic", -1}, {"nic+bp1", 1}}
	for _, name := range []string{"Jacobi", "IGrid", "NBF"} {
		a, err := exp.AppByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []core.Version{core.Tmk, core.XHPF, core.PVMe} {
			for _, sw := range sweep {
				b.Run(fmt.Sprintf("%s/%s/%s", name, v, sw.name), func(b *testing.B) {
					e, s := exp.New(), benchSpec(a, v, benchProcs)
					s.Contention = sw.ways
					var res core.Result
					var err error
					for i := 0; i < b.N; i++ {
						res, err = e.Run(s)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(res.Time.Seconds()*1e3, "vtime-ms")
					b.ReportMetric(res.QueueTime().Seconds()*1e3, "queue-ms")
					b.ReportMetric(float64(res.Stats.TotalQueuedMsgs()), "queued-msgs")
				})
			}
		}
	}
}

// BenchmarkSimulatorEventRate measures the discrete-event engine's raw
// throughput (simulator events per second of host time).
func BenchmarkSimulatorEventRate(b *testing.B) {
	const msgsPerRun = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sim.New(sim.Config{
			Procs: 8, Latency: 10 * sim.Microsecond, NanosPerByte: 30,
			SendOverhead: 5 * sim.Microsecond, RecvOverhead: 5 * sim.Microsecond,
		})
		if err := c.Run(func(p *sim.Proc) {
			next := (p.ID() + 1) % 8
			prev := (p.ID() + 7) % 8
			for k := 0; k < msgsPerRun/8; k++ {
				p.Send(next, 1, nil, 64, stats.KindData)
				p.Recv(prev, 1)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgsPerRun*2), "events/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*msgsPerRun*2), "ns/event")
}

// BenchmarkSection8PushVsPull compares §8's producer-push boundary
// propagation against the default request-response pull on Jacobi.
func BenchmarkSection8PushVsPull(b *testing.B) {
	a, err := exp.AppByName("Jacobi")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pull", func(b *testing.B) { reportRun(b, a, core.Tmk) })
	b.Run("push", func(b *testing.B) { reportRun(b, a, core.TmkPush) })
}

// BenchmarkScalability sweeps processor counts on Jacobi and IGrid: the
// regular application keeps near-linear DSM speedups, while the XHPF
// broadcast fallback on the irregular application degrades with scale.
func BenchmarkScalability(b *testing.B) {
	for _, name := range []string{"Jacobi", "IGrid"} {
		a, err := exp.AppByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, procs := range []int{2, 4, 8} {
			b.Run(name+"/"+string(rune('0'+procs))+"procs", func(b *testing.B) {
				e := exp.New()
				var seq, res core.Result
				for i := 0; i < b.N; i++ {
					seq, err = e.Run(benchSpec(a, core.Seq, 1))
					if err != nil {
						b.Fatal(err)
					}
					res, err = e.Run(benchSpec(a, core.Tmk, procs))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Speedup(seq.Time), "speedup")
			})
		}
	}
}
