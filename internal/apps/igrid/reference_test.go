package igrid

import (
	"math"
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
	"repro/internal/model"
)

// referenceGrid is IGrid's relaxation as the algorithm states it, with
// no map: an n×n grid of ones with a spike of 500 at the middle and one
// of 300 an eighth of the side in from the lower right corner, then
// steps sweeps in each of which every interior point becomes the mean
// of its 3×3 neighbourhood in the previous grid. It indexes the
// neighbours directly, but does the package's arithmetic — float32, the
// nine summed from zero in map order (the row above left to right, the
// point's own row, the row below), then divided by nine — so the
// package must equal it bit for bit. It is test-only: no record reads
// it.
func referenceGrid(n, steps int) []float32 {
	g, next := make([]float32, n*n), make([]float32, n*n)
	for i := range g {
		g[i] = 1
	}
	g[(n/2)*n+n/2] += 500
	g[(n-n/8)*n+n-n/8] += 300
	copy(next, g)
	for s := 0; s < steps; s++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				var sum float32
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						sum += g[(i+di)*n+j+dj]
					}
				}
				next[i*n+j] = sum / 9
			}
		}
		g, next = next, g
	}
	return g
}

// referenceChecksum is what seq reports for grid g: the maximum times a
// thousand plus the minimum of the central square — 40×40, or an eighth
// of the side on a grid under 100 — then the grid's float64 sum in
// index order.
func referenceChecksum(g []float32, n int) float64 {
	side := 40
	if n < 100 {
		side = n / 8
	}
	lo := n/2 - side/2
	mx, mn := float32(-1e30), float32(1e30)
	for i := lo; i < lo+side; i++ {
		for _, v := range g[i*n+lo : i*n+lo+side] {
			mx, mn = max(mx, v), min(mn, v)
		}
	}
	var sum float64
	for _, v := range g {
		sum += float64(v)
	}
	return float64(mx)*1e3 + float64(mn) + sum
}

// referenceScales runs f at small scale and at mid scale (a 500 × 500
// grid, 11 steps).
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
// reference grid's, bit for bit, so seq — and through
// TestAllVersionsMatchSequential every version — relaxes the 9-point
// stencil, not only something every version agrees on.
func TestSeqMatchesReference(t *testing.T) {
	referenceScales(t, func(t *testing.T, cfg core.Config) {
		seq, err := New().Run(core.Seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := cfg.N1
		if want := referenceChecksum(referenceGrid(n, cfg.Warmup+cfg.Iters), n); math.Float64bits(seq.Checksum) != math.Float64bits(want) {
			t.Errorf("seq checksum = %v, reference = %v", seq.Checksum, want)
		}
	})
}

// TestKernelsMatchReference: the package's set-up, map and relaxation
// kernel, driven over the whole grid, equal the reference element by
// element. A checksum cannot see a value in the wrong place; this can.
func TestKernelsMatchReference(t *testing.T) {
	referenceScales(t, func(t *testing.T, cfg core.Config) {
		n := cfg.N1
		idx := buildMap(n)
		old, cur := make([]float32, n*n), make([]float32, n*n)
		initOld(old, n)
		copy(cur, old)
		for s := 0; s < cfg.Warmup+cfg.Iters; s++ {
			relaxRows(cur, old, idx, n, 1, n-1, 0, 0)
			old, cur = cur, old
		}
		kerneltest.SameBits(t, "grid", old, referenceGrid(n, cfg.Warmup+cfg.Iters))
	})
}
