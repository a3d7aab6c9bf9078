package fft3d

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// sameComplexBits fails t unless a and b agree in every bit.
func sameComplexBits(t *testing.T, what string, a, b complex128) {
	t.Helper()
	if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
		t.Fatalf("%s: %v, want %v", what, a, b)
	}
}

// TestInPlaceMatchesTranspose holds seq's third dimension — the in-place
// n3-point FFTs, the normalisation of x and the checksum read through
// the index map — to the parallel versions' transpose into xt,
// fft3Rows, normalizeRows and checksumRows: every element, the
// checksum, and the butterfly and touch counts agree bit for bit.
func TestInPlaceMatchesTranspose(t *testing.T) {
	for _, d := range [][3]int{{16, 16, 8}, {2, 4, 16}, {8, 2, 4}, {1, 1, 2}, {64, 64, 32}} {
		cfg := core.Config{N1: d[0], N2: d[1], N3: d[2]}
		kn := newKernel(cfg)
		total := kn.n1 * kn.n2 * kn.n3
		idx := checksumIndices(total)
		x := make([]complex128, total)
		kn.initPlanes(x, 0, kn.n3, 0, 1)
		kn.fft1Planes(x, 0, kn.n3, 0)
		kn.fft2Planes(x, 0, kn.n3, 0)

		xt := make([]complex128, total)
		planes := make([][]complex128, kn.n3)
		for i3 := range planes {
			planes[i3] = x[i3*kn.n2*kn.n1 : (i3+1)*kn.n2*kn.n1]
		}
		wantTouches := kn.transposeRows(xt, planes, 0, kn.n2, 0)
		wantB := kn.fft3Rows(xt, 0, kn.n2, 0)
		wantTouches += kn.normalizeRows(xt, 0, kn.n2, 0)
		wantSum, t1 := kn.checksumRows(xt, idx, 0, kn.n2, 0)
		wantTouches += t1

		b := kn.fft3InPlace(x)
		touches := total + kn.normalizeRows(x, 0, kn.n2, 0)
		sum, t2 := kn.checksumInPlace(x, idx)
		touches += t2

		what := fmt.Sprintf("%dx%dx%d", kn.n1, kn.n2, kn.n3)
		if b != wantB || touches != wantTouches {
			t.Errorf("%s: %d butterflies and %d touches, want %d and %d", what, b, touches, wantB, wantTouches)
		}
		for i3 := 0; i3 < kn.n3; i3++ {
			for i2 := 0; i2 < kn.n2; i2++ {
				for i1 := 0; i1 < kn.n1; i1++ {
					sameComplexBits(t, fmt.Sprintf("%s element (%d,%d,%d)", what, i1, i2, i3),
						x[(i3*kn.n2+i2)*kn.n1+i1], xt[(i2*kn.n3+i3)*kn.n1+i1])
				}
			}
		}
		sameComplexBits(t, what+" checksum", sum, wantSum)
	}
}
