package jacobi

import (
	"math"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/apps/kerneltest"
	"repro/internal/core"
	"repro/internal/model"
)

// referenceGrid is Jacobi iteration as the algorithm states it: an n×n
// grid with edges at one and the interior at zero, then steps sweeps in
// each of which every interior point becomes a quarter of the sum of
// its four neighbours (north, south, west, east) in the previous grid.
// It shares no code with the package, but does its arithmetic — float32
// throughout, the sum in that order — so the package must equal it bit
// for bit. It is test-only: no record reads it.
func referenceGrid(n, steps int) []float32 {
	u, next := make([]float32, n*n), make([]float32, n*n)
	for k := 0; k < n; k++ {
		for _, g := range [][]float32{u, next} {
			g[k], g[(n-1)*n+k], g[k*n], g[k*n+n-1] = 1, 1, 1, 1
		}
	}
	for s := 0; s < steps; s++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				next[i*n+j] = 0.25 * (u[(i-1)*n+j] + u[(i+1)*n+j] + u[i*n+j-1] + u[i*n+j+1])
			}
		}
		u, next = next, u
	}
	return u
}

// sumOf is a grid's sum in float64, in index order.
func sumOf(g []float32) float64 {
	var s float64
	for _, v := range g {
		s += float64(v)
	}
	return s
}

// referenceScales runs f at small scale and at mid scale (a
// 1 024 × 1 024 grid, 21 steps).
func referenceScales(t *testing.T, f func(t *testing.T, cfg core.Config)) {
	for _, scale := range []core.Scale{core.SmallScale, core.MidScale} {
		t.Run(string(scale), func(t *testing.T) {
			cfg := New().Config(scale, 1)
			cfg.Costs, cfg.App = model.SP2(), model.DefaultAppCosts()
			f(t, cfg)
		})
	}
}

// TestSeqMatchesReference: the sequential version's checksum is the
// reference grid's sum, bit for bit, so seq — and through
// TestAllVersionsMatchSequential every version — computes Jacobi
// iteration, not only something every version agrees on.
func TestSeqMatchesReference(t *testing.T) {
	referenceScales(t, func(t *testing.T, cfg core.Config) {
		seq, err := New().Run(core.Seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := sumOf(referenceGrid(cfg.N1, cfg.Warmup+cfg.Iters)); math.Float64bits(seq.Checksum) != math.Float64bits(want) {
			t.Errorf("seq checksum = %v, reference grid sums to %v", seq.Checksum, want)
		}
	})
}

// TestKernelsMatchReference: the package's grid set-up and row kernels,
// driven over the whole grid, equal the reference element by element.
// A sum cannot see a value in the wrong place; this can.
func TestKernelsMatchReference(t *testing.T) {
	referenceScales(t, func(t *testing.T, cfg core.Config) {
		n := cfg.N1
		data, scratch := make([]float32, n*n), make([]float32, n*n)
		apputil.EdgesOne(data, n)
		apputil.EdgesOne(scratch, n)
		for s := 0; s < cfg.Warmup+cfg.Iters; s++ {
			stencilRows(scratch, data, n, 1, n-1, 0, 0)
			copyRows(data, scratch, n, 1, n-1, 0, 0)
		}
		kerneltest.SameBits(t, "grid", data, referenceGrid(n, cfg.Warmup+cfg.Iters))
	})
}
