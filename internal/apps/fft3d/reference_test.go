package fft3d

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/model"
)

// seqTransform is one iteration of the sequential version's kernels, in
// its order: initialise x for iteration iter, n1- then n2-point inverse
// FFTs, the transpose into xt, n3-point inverse FFTs and the
// normalisation. It returns xt, element (i1,i2,i3) at (i2*n3+i3)*n1+i1.
func seqTransform(cfg core.Config, iter int) []complex128 {
	kn := newKernel(cfg)
	total := kn.n1 * kn.n2 * kn.n3
	x, xt := make([]complex128, total), make([]complex128, total)
	planes := make([][]complex128, kn.n3)
	for i3 := range planes {
		planes[i3] = x[i3*kn.n2*kn.n1 : (i3+1)*kn.n2*kn.n1]
	}
	kn.initPlanes(x, 0, kn.n3, 0, iter)
	kn.fft1Planes(x, 0, kn.n3, 0)
	kn.fft2Planes(x, 0, kn.n3, 0)
	kn.transposeRows(xt, planes, 0, kn.n2, 0)
	kn.fft3Rows(xt, 0, kn.n2, 0)
	kn.normalizeRows(xt, 0, kn.n2, 0)
	return xt
}

// referenceInverse is the normalised inverse 3-D DFT as its definition
// states it, O(N²): output (k1,k2,k3) is the mean over every input
// element (j1,j2,j3) = initValue((j3*n2+j2)*n1+j1, iter) times
// e^{2πi(j1k1/n1 + j2k2/n2 + j3k3/n3)}. It shares no code with the
// package's FFT and returns the xt layout.
func referenceInverse(n1, n2, n3, iter int) []complex128 {
	roots := func(n int) []complex128 {
		w := make([]complex128, n)
		for k := range w {
			w[k] = cmplx.Rect(1, 2*math.Pi*float64(k)/float64(n))
		}
		return w
	}
	w1, w2, w3 := roots(n1), roots(n2), roots(n3)
	total := n1 * n2 * n3
	in := make([]complex128, total)
	for i := range in {
		in[i] = initValue(i, iter)
	}
	out := make([]complex128, total)
	for k3 := 0; k3 < n3; k3++ {
		for k2 := 0; k2 < n2; k2++ {
			for k1 := 0; k1 < n1; k1++ {
				var s complex128
				for j3 := 0; j3 < n3; j3++ {
					for j2 := 0; j2 < n2; j2++ {
						w := w3[j3*k3%n3] * w2[j2*k2%n2]
						row := in[(j3*n2+j2)*n1:][:n1]
						for j1, v := range row {
							s += v * w * w1[j1*k1%n1]
						}
					}
				}
				out[(k2*n3+k3)*n1+k1] = s / complex(float64(total), 0)
			}
		}
	}
	return out
}

// TestSeqMatchesReference: at small scale, every iteration's kernels
// equal the direct inverse DFT element by element, and seq's checksum
// is the one they give. So seq — and through
// TestAllVersionsMatchSequential every version — computes the inverse
// 3-D FFT, not only something every version agrees on.
func TestSeqMatchesReference(t *testing.T) {
	const tol = 1e-12 // N = 2 048 terms of modulus ≤ 0.71 round to a few ε after the 1/N scaling; a wrong twiddle, index or scale moves an element by ≳ 1e-3
	cfg := New().Config(core.SmallScale, 1)
	cfg.Costs, cfg.App = model.SP2(), model.DefaultAppCosts()
	var xt []complex128
	for iter := 0; iter < cfg.Warmup+cfg.Iters; iter++ {
		xt = seqTransform(cfg, iter)
		want := referenceInverse(cfg.N1, cfg.N2, cfg.N3, iter)
		for i := range want {
			if d := cmplx.Abs(xt[i] - want[i]); !(d <= tol) {
				t.Fatalf("iteration %d: element %d = %v, reference %v (|Δ| = %g)", iter, i, xt[i], want[i], d)
			}
		}
	}
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kn := newKernel(cfg)
	s, _ := kn.checksumRows(xt, checksumIndices(len(xt)), 0, kn.n2, 0)
	if want := sumComplex(s); math.Float64bits(seq.Checksum) != math.Float64bits(want) {
		t.Errorf("seq checksum = %v, its kernels' last iteration gives %v", seq.Checksum, want)
	}
}

// TestSeqTransformIsInverse: at mid scale, where the direct DFT is too
// slow, the kernels' output keeps the input's energy divided by N
// (Parseval, for the normalised inverse), and forward FFTs along the
// three dimensions bring the input back.
func TestSeqTransformIsInverse(t *testing.T) {
	cfg := New().Config(core.MidScale, 1)
	n1, n2, n3 := cfg.N1, cfg.N2, cfg.N3
	total := n1 * n2 * n3
	const iter = 1
	xt := seqTransform(cfg, iter)

	var in, out float64
	for i, v := range xt {
		x := initValue(i, iter)
		in += real(x)*real(x) + imag(x)*imag(x)
		out += real(v)*real(v) + imag(v)*imag(v)
	}
	if got, want := out*float64(total), in; math.Abs(got-want) > 1e-9*want {
		t.Errorf("Parseval: N·Σ|y|² = %v, Σ|x|² = %v", got, want)
	}

	// Forward along i1, i3 and i2 in xt's layout, then compare with the
	// input at the same (i1,i2,i3).
	s := make([]complex128, max(n2, n3))
	for i2 := 0; i2 < n2; i2++ {
		for i3 := 0; i3 < n3; i3++ {
			fft.Forward(xt[(i2*n3+i3)*n1:][:n1])
		}
		for i1 := 0; i1 < n1; i1++ {
			for i3 := 0; i3 < n3; i3++ {
				s[i3] = xt[(i2*n3+i3)*n1+i1]
			}
			fft.Forward(s[:n3])
			for i3 := 0; i3 < n3; i3++ {
				xt[(i2*n3+i3)*n1+i1] = s[i3]
			}
		}
	}
	for i3 := 0; i3 < n3; i3++ {
		for i1 := 0; i1 < n1; i1++ {
			for i2 := 0; i2 < n2; i2++ {
				s[i2] = xt[(i2*n3+i3)*n1+i1]
			}
			fft.Forward(s[:n2])
			for i2 := 0; i2 < n2; i2++ {
				xt[(i2*n3+i3)*n1+i1] = s[i2]
			}
		}
	}
	for i2 := 0; i2 < n2; i2++ {
		for i3 := 0; i3 < n3; i3++ {
			for i1 := 0; i1 < n1; i1++ {
				got, want := xt[(i2*n3+i3)*n1+i1], initValue((i3*n2+i2)*n1+i1, iter)
				if d := cmplx.Abs(got - want); !(d <= 1e-12) {
					t.Fatalf("round trip: element (%d,%d,%d) = %v, input %v", i1, i2, i3, got, want)
				}
			}
		}
	}
}
