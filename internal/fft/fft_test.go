package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k*j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func approxEqual(a, b []complex128, tol float64) bool {
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func ramp(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64((i*i)%5)-2)
	}
	return x
}

func TestMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		x := ramp(n)
		want := naiveDFT(x, false)
		Forward(x)
		if !approxEqual(x, want, 1e-9*float64(n)) {
			t.Errorf("n=%d: FFT disagrees with naive DFT", n)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	n := 32
	x := ramp(n)
	want := naiveDFT(x, true)
	Inverse(x)
	if !approxEqual(x, want, 1e-9*float64(n)) {
		t.Error("inverse FFT disagrees with naive inverse DFT")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(re, im [16]float64) bool {
		x := make([]complex128, 16)
		orig := make([]complex128, 16)
		for i := range x {
			x[i] = complex(math.Mod(re[i], 100), math.Mod(im[i], 100))
			orig[i] = x[i]
		}
		Forward(x)
		Inverse(x)
		for i := range x {
			x[i] /= 16
		}
		return approxEqual(x, orig, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(re [32]float64) bool {
		x := make([]complex128, 32)
		var tEnergy float64
		for i := range x {
			x[i] = complex(math.Mod(re[i], 10), 0)
			tEnergy += real(x[i] * cmplx.Conj(x[i]))
		}
		Forward(x)
		var fEnergy float64
		for i := range x {
			fEnergy += real(x[i] * cmplx.Conj(x[i]))
		}
		return math.Abs(fEnergy-32*tEnergy) < 1e-6*(1+fEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(re1, re2 [8]float64) bool {
		a := make([]complex128, 8)
		b := make([]complex128, 8)
		sum := make([]complex128, 8)
		for i := range a {
			a[i] = complex(math.Mod(re1[i], 50), 0)
			b[i] = complex(0, math.Mod(re2[i], 50))
			sum[i] = a[i] + b[i]
		}
		Forward(a)
		Forward(b)
		Forward(sum)
		for i := range a {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestImpulseGivesFlatSpectrum(t *testing.T) {
	x := make([]complex128, 64)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("X[%d] = %v, want 1", i, v)
		}
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=12")
		}
	}()
	transform(make([]complex128, 12), false)
}

func TestButterflies(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 4, 8: 12, 128: 448, 64: 192}
	for n, want := range cases {
		if got := Butterflies(n); got != want {
			t.Errorf("Butterflies(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPow2(t *testing.T) {
	for n, want := range map[int]bool{1: true, 2: true, 3: false, 64: true, 0: false, -4: false, 96: false} {
		if Pow2(n) != want {
			t.Errorf("Pow2(%d) = %v", n, Pow2(n))
		}
	}
}

// BenchmarkTransform128 times the paper-scale pencil length; a point is
// one butterfly. The input is restored every iteration: transforming a
// spectrum again and again overflows to Inf within a few hundred rounds.
func BenchmarkTransform128(b *testing.B) {
	src, x := ramp(128), make([]complex128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		Forward(x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(Butterflies(128))), "ns/point")
}

// TestConcurrentTransforms runs first-use transforms of many sizes from
// several goroutines at once, as the sweep engine's workers do: the
// shared twiddle cache must be safe to fill concurrently (run with
// -race) and every goroutine must get the same spectrum.
func TestConcurrentTransforms(t *testing.T) {
	const workers = 4
	out := make([][]complex128, workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1 << 12; n <= 1<<16; n <<= 1 {
				x := make([]complex128, n)
				x[1] = 1
				Forward(x)
				Inverse(x)
				out[w] = append(out[w], x[1], x[n-1])
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range out[0] {
			if out[w][i] != out[0][i] {
				t.Fatalf("worker %d result %d = %v, worker 0 got %v", w, i, out[w][i], out[0][i])
			}
		}
	}
}
