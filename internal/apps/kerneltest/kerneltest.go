// Package kerneltest holds what the applications' kernel tests share:
// deterministic inputs, awkward row bands, a bit-for-bit comparison, the
// per-point benchmark metric and the two-concurrent-runs check. The applications' numeric kernels are written for
// host speed; their tests keep the straightforward originals as
// references and hold the fast ones to identical bits.
package kerneltest

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
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
// -race. Inputs an application builds once per run are shared by that
// run's simulated processes only, never across runs.
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
