package apputil

import (
	"fmt"
	"testing"

	"repro/internal/apps/kerneltest"
)

// edgesOneRef is the per-point original: a four-way test at every point.
func edgesOneRef(g []float32, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 0 || j == 0 || i == n-1 || j == n-1 {
				g[i*n+j] = 1
			} else {
				g[i*n+j] = 0
			}
		}
	}
}

// TestEdgesOneMatchesReference starts, as every caller does, from a
// zeroed slice, here longer than the grid (a shared region's
// page-rounded backing): the tail must stay untouched.
func TestEdgesOneMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 64, 65} {
		got, want := make([]float32, n*n+7), make([]float32, n*n+7)
		EdgesOne(got, n)
		edgesOneRef(want, n)
		kerneltest.SameBits(t, fmt.Sprintf("n=%d", n), got, want)
	}
}

func BenchmarkEdgesOne(b *testing.B) {
	const n = 1024
	g := make([]float32, n*n)
	for i := 0; i < b.N; i++ {
		EdgesOne(g, n)
	}
	kerneltest.ReportPer(b, "point", n*n)
}

func BenchmarkSum64(b *testing.B) {
	xs := kerneltest.Noise(1, 1<<20)
	var s float64
	for i := 0; i < b.N; i++ {
		s += Sum64(xs)
	}
	if s != s {
		b.Fatal("NaN")
	}
	kerneltest.ReportPer(b, "point", len(xs))
}
