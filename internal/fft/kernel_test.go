package fft

import (
	"math"
	"slices"
	"testing"
)

// transformRef is the straightforward indexed butterfly loop Transform
// must match bit for bit.
func transformRef(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := twiddles(n, inverse)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			k := 0
			for off := 0; off < half; off++ {
				u := x[base+off]
				v := x[base+off+half] * tw[k]
				x[base+off] = u + v
				x[base+off+half] = u - v
				k += step
			}
		}
	}
}

func TestTransformBitwise(t *testing.T) {
	for n := 1; n <= 1<<10; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			got := make([]complex128, n)
			for i := range got {
				got[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(7*i+2)))
			}
			want := slices.Clone(got)
			transform(got, inverse)
			transformRef(want, inverse)
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d inverse=%v: element %d = %v, want %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}
