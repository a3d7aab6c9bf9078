// Package kerneltest holds what the applications' kernel tests share:
// deterministic inputs, awkward row bands, a bit-for-bit comparison, the
// per-point benchmark metric, the two-concurrent-runs check and the
// memory-proportionality checks. The applications' numeric kernels are
// written for host speed; their tests keep the straightforward originals
// as references and hold the fast ones to identical bits.
package kerneltest

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proto"
)

// Noise returns n deterministic float32 values in (-2, 2) with full
// mantissas, so that any reassociation or widened intermediate in a
// kernel shows up in the low bits of its output.
func Noise(seed uint32, n int) []float32 {
	out := make([]float32, n)
	x := seed*2654435761 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = float32(int32(x)) / (1 << 30)
	}
	return out
}

// Bands returns row ranges [lo,hi) within the interior rows [1,n-1) of
// an n×n grid that a row kernel must get right: all of them, two empty
// ones, the first row alone, the last row alone, and a middle band.
func Bands(n int) [][2]int {
	return [][2]int{{1, n - 1}, {1, 1}, {n / 2, n / 2}, {1, 2}, {n - 2, n - 1}, {n / 3, n - n/3}}
}

// SameBits fails t when got and want differ in length or in any bit.
func SameBits(t testing.TB, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)", what, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// ReportPer reports the benchmark's time per unit of work ("point",
// "molecule", ...) given the units one iteration processes.
func ReportPer(b *testing.B, unit string, perIter int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(perIter)), "ns/"+unit)
}

// ConcurrentRuns runs every version of app from two goroutines at once,
// as two engine workers do, and fails t when the two disagree; run with
// -race. Inputs an application builds once per process and size (IGrid's
// map, NBF's partner lists) are read by both runs at once.
func ConcurrentRuns(t *testing.T, app core.App, cfg core.Config) {
	t.Helper()
	sums := make([][]float64, 2)
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range app.Versions() {
				r, err := app.Run(v, cfg)
				if err != nil {
					t.Errorf("%s: %v", v, err)
					return
				}
				sums[w] = append(sums[w], r.Checksum)
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(sums[0], sums[1]) {
		t.Errorf("concurrent runs disagree: %v vs %v", sums[0], sums[1])
	}
}

// Allocated runs one version of app at mid scale on procs processors
// (DSM versions under the given protocol, "" for the default) and
// returns its result with the bytes the run allocated on the host.
func Allocated(t *testing.T, app core.App, v core.Version, procs int, protocol proto.Name) (core.Result, uint64) {
	t.Helper()
	cfg := app.Config(core.MidScale, procs)
	cfg.Costs, cfg.App, cfg.Protocol = model.SP2(), model.DefaultAppCosts(), protocol
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := app.Run(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return res, after.TotalAlloc - before.TotalAlloc
}

// DSMAllocatesWhatItTouches: a DSM node frames the pages it validates
// or receives, so neither the bytes the hand-coded TreadMarks version
// allocates nor the pages it frames may grow with the processor count
// the way a full copy of every shared array per node did (eight copies
// at eight processors). Processor 0 still holds whole arrays — it
// initializes them or reads them back — and every node its twins, diffs
// and halo pages: that is the slack.
func DSMAllocatesWhatItTouches(t *testing.T, app core.App) {
	t.Helper()
	one, bytes1 := Allocated(t, app, core.Tmk, 1, "")
	eight, bytes8 := Allocated(t, app, core.Tmk, 8, "")
	t.Logf("%s tmk at mid scale: 1 processor %d bytes, %d pages framed; 8 processors %d bytes, %d pages framed, %d joins abandoning %d bytes",
		app.Name(), bytes1, one.FramedPages, bytes8, eight.FramedPages, eight.FrameJoins, eight.AbandonedBytes)
	if bytes8 > 3*bytes1 {
		t.Errorf("%s tmk allocates %d bytes on 8 processors, %d on 1: more than 3x — a full copy per node is back", app.Name(), bytes8, bytes1)
	}
	if eight.FramedPages > 3*one.FramedPages {
		t.Errorf("%s tmk frames %d pages on 8 processors, %d on 1: more than 3x", app.Name(), eight.FramedPages, one.FramedPages)
	}
}
