package exp

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/store"
)

var (
	sinkKey string
	sinkRec Record
)

func BenchmarkSpecKey(b *testing.B) {
	s := Spec{App: "3-D FFT", Version: core.SPFOpt, Procs: 8, Scale: core.SmallScale,
		Protocol: proto.HomeLRC, Contention: 2, HomePolicy: proto.FirstTouchPolicy}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = s.Key()
	}
}

// BenchmarkValidateLine is the strict decode plus every record check,
// on a paper application's line and on a generated program's: the two
// cost the same, because validation checks the name and builds nothing.
func BenchmarkValidateLine(b *testing.B) {
	paper := Spec{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.SmallScale}
	for _, c := range []struct {
		name string
		line []byte
	}{{"paper", recordLine(b, paper)}, {"gen", recordLine(b, genSpec)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkRec, err = ValidateLine(c.line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serveWarmSpecs is the list the warm-path benchmark and allocation
// floor serve: two applications and eight generated programs.
func serveWarmSpecs() []Spec {
	specs := Axes{
		Apps:      []string{"Jacobi", "RB-SOR"},
		Versions:  []core.Version{core.Tmk, core.XHPF},
		Procs:     []int{2, 4},
		Protocols: proto.Names(),
	}.Specs(Spec{Scale: core.SmallScale})
	for seed := 1; seed <= 8; seed++ {
		for _, v := range []core.Version{core.SPFGen, core.XHPFGen} {
			specs = append(specs, Spec{App: fmt.Sprintf("gen-%d", seed), Version: v, Procs: 4, Scale: core.SmallScale})
		}
	}
	return specs
}

// BenchmarkServeWarm is one warm StreamWith pass — observed, joined,
// two workers, a fresh engine, as a CLI pays it — over a store holding
// serveWarmSpecs. Nothing may execute. It reports allocs and bytes a
// record beside -benchmem's per-pass numbers.
func BenchmarkServeWarm(b *testing.B) {
	specs := serveWarmSpecs()
	st, err := store.Open(b.TempDir(), StoreOptions(0))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	engine := func() *Engine {
		e := New()
		e.Workers, e.JoinSpeedup, e.Observe, e.Store = 2, true, true, st
		return e
	}
	if _, err := engine().StreamWith(io.Discard, specs, nil); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine()
		if _, err := e.StreamWith(io.Discard, specs, nil); err != nil {
			b.Fatal(err)
		}
		if hs := e.HostStats(); hs.RunsStarted != 0 {
			b.Fatalf("warm pass executed %d runs", hs.RunsStarted)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	records := float64(b.N * len(specs))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/records, "us/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
}
