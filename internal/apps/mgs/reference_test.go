package mgs

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/core"
)

// referenceQ is modified Gram-Schmidt as the source algorithm states
// it, from the matrix every version starts with: take each row in turn,
// scale it to unit length, then remove its component from every later
// row. It shares no code with the kernels, but does their arithmetic —
// float32 rows, float64 dot products in index order — so seq must
// equal it bit for bit. It is test-only: no record reads it.
func referenceQ(n int) []float32 {
	q := make([]float32, n*n)
	initMatrix(q, n)
	row := func(i int) []float32 { return q[i*n : (i+1)*n] }
	for i := 0; i < n; i++ {
		pivot := row(i)
		var norm2 float64
		for _, x := range pivot {
			norm2 += float64(x) * float64(x)
		}
		inv := float32(1 / math.Sqrt(norm2))
		for k := range pivot {
			pivot[k] *= inv
		}
		for j := i + 1; j < n; j++ {
			r := row(j)
			var d float64
			for k := range pivot {
				d += float64(pivot[k]) * float64(r[k])
			}
			for k := range r {
				r[k] -= float32(d) * pivot[k]
			}
		}
	}
	return q
}

// offIdentity is max |QQᵀ − I| over every pair of rows, in float64.
func offIdentity(q []float32, n int) float64 {
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var d float64
			for k := 0; k < n; k++ {
				d += float64(q[i*n+k]) * float64(q[j*n+k])
			}
			if i == j {
				d--
			}
			worst = max(worst, math.Abs(d))
		}
	}
	return worst
}

// TestReferenceIsOrthonormal holds the reference to the property MGS
// exists for, since its float32 rows cannot be compared with exact
// arithmetic bit for bit. Bounds: float32 rounding (6e-8 an operation)
// grows with N under MGS's loss of orthogonality; measured 9.8e-6 at
// N = 64 and 1.36e-4 at N = 1 024, so each bound is ten times that.
func TestReferenceIsOrthonormal(t *testing.T) {
	for _, c := range []struct {
		n     int
		bound float64
	}{{64, 1e-4}, {1024, 1e-3}} {
		t.Run(fmt.Sprintf("n=%d", c.n), func(t *testing.T) {
			if c.n > 64 && testing.Short() {
				t.Skip("n = 1 024: a few seconds")
			}
			if got := offIdentity(referenceQ(c.n), c.n); got > c.bound {
				t.Errorf("max |QQᵀ − I| = %.3g, want at most %g", got, c.bound)
			}
		})
	}
}

// TestSeqMatchesReference: the sequential version's checksum is the
// reference basis's sum, bit for bit, so seq — and through
// TestAllVersionsMatchSequential every version — computes modified
// Gram-Schmidt, not only something every version agrees on.
func TestSeqMatchesReference(t *testing.T) {
	cfg := cfgSmall(1)
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := apputil.Sum64(referenceQ(cfg.N1)); math.Float64bits(seq.Checksum) != math.Float64bits(want) {
		t.Errorf("seq checksum = %v, reference basis sums to %v", seq.Checksum, want)
	}
}
