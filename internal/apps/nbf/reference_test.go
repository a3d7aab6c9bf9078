package nbf

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// referenceCoords is NBF's iterations as the algorithm states them, in
// float64: every pair (i, j) on molecule i's partner list adds the pair
// force of their coordinate difference, dx·0.001 + dy·0.0005 +
// dz·0.00025 − |d|²·0.0001, to i and subtracts it from j; then every
// molecule moves by its summed force times (0.01, 0.005, 0.0025). It
// shares the partner lists and the initial coordinates with the
// package, and none of its kernels.
func referenceCoords(cfg core.Config) (x, y, z []float64) {
	x32, y32, z32 := make([]float32, cfg.N1), make([]float32, cfg.N1), make([]float32, cfg.N1)
	initCoords(x32, y32, z32)
	x, y, z = make([]float64, cfg.N1), make([]float64, cfg.N1), make([]float64, cfg.N1)
	for i := range x {
		x[i], y[i], z[i] = float64(x32[i]), float64(y32[i]), float64(z32[i])
	}
	lists := buildPartners(cfg.N1, cfg.N2, cfg.N3)
	f := make([]float64, cfg.N1)
	for iter := 0; iter < cfg.Warmup+cfg.Iters; iter++ {
		clear(f)
		for i, list := range lists {
			for _, j := range list {
				dx, dy, dz := x[i]-x[j], y[i]-y[j], z[i]-z[j]
				g := dx*0.001 + dy*0.0005 + dz*0.00025 - (dx*dx+dy*dy+dz*dz)*0.0001
				f[i] += g
				f[j] -= g
			}
		}
		for i := range x {
			x[i], y[i], z[i] = x[i]+f[i]*0.01, y[i]+f[i]*0.005, z[i]+f[i]*0.0025
		}
	}
	return x, y, z
}

// TestSeqMatchesReference: at small and mid scale the sequential
// version's kernels give coordinates equal to the float64 reference's
// element by element, and seq's checksum is the one they give. So seq —
// and through exp.Agree every version — computes NBF's forces and
// moves, not only something every version agrees on.
func TestSeqMatchesReference(t *testing.T) {
	const tol = 1e-6 // float32 coordinates near 1 round by ≤ 6e-8 a move, ≤ 5.2e-7 measured over mid scale's 9; a dropped pair or a flipped sign moves a molecule by ≳ 7e-6
	for _, scale := range []core.Scale{core.SmallScale, core.MidScale} {
		cfg := New().Config(scale, 1)
		cfg.Costs, cfg.App = model.SP2(), model.DefaultAppCosts()
		x, y, z := SeqCoords(cfg)
		rx, ry, rz := referenceCoords(cfg)
		for i := range x {
			if d := max(math.Abs(float64(x[i])-rx[i]), math.Abs(float64(y[i])-ry[i]), math.Abs(float64(z[i])-rz[i])); !(d <= tol) {
				t.Fatalf("%s: molecule %d at (%v, %v, %v), reference (%v, %v, %v): |Δ| = %g", scale, i, x[i], y[i], z[i], rx[i], ry[i], rz[i], d)
			}
		}
		seq, err := New().Run(core.Seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := coordSum(x, y, z); math.Float64bits(seq.Checksum) != math.Float64bits(want) {
			t.Errorf("%s: seq checksum = %v, its kernels give %v", scale, seq.Checksum, want)
		}
	}
}
