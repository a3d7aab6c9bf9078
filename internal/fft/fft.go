// Package fft provides the radix-2 complex FFT used by the 3-D FFT
// application (the NAS FT kernel of the paper §5.4). It is a standard
// iterative in-place Cooley-Tukey transform; all problem dimensions in
// the paper (128, 128, 64) are powers of two.
package fft

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// twiddleCache memoizes per-size twiddle tables, indexed by direction
// and log2(n). The simulator runs the same transform sizes millions of
// times, and regenerating twiddles dominates otherwise. Entries are
// published atomically because the sweep engine runs several simulations
// at once; two of them may build the same table, and either copy serves.
var twiddleCache [2][bits.UintSize]atomic.Pointer[[]complex128]

// twiddles returns the table for a power-of-two n.
func twiddles(n int, inverse bool) []complex128 {
	dir, sign := 0, -1.0
	if inverse {
		dir, sign = 1, 1.0
	}
	slot := &twiddleCache[dir][bits.TrailingZeros(uint(n))]
	if tw := slot.Load(); tw != nil {
		return *tw
	}
	tw := make([]complex128, n/2)
	for i := range tw {
		ang := sign * 2 * math.Pi * float64(i) / float64(n)
		tw[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	slot.Store(&tw)
	return tw
}

// Pow2 reports whether n is a positive power of two.
func Pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// transform computes the in-place DFT of x. len(x) must be a power of
// two. inverse computes the unnormalized inverse (divide by len(x) to
// invert a forward transform).
func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if !Pow2(n) {
		panic("fft: length must be a power of two")
	}
	// Bit-reversal permutation.
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
	// A stage is step blocks of half butterflies, all independent; run
	// the longer dimension innermost. Early stages (many short blocks)
	// fix the twiddle and stride over the blocks; late stages walk each
	// block's two halves as equal-length views, free of bounds checks.
	// Either order performs the same butterflies on the same operands.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		if half < step {
			for off := 0; off < half; off++ {
				w := tw[off*step]
				for base := off; base+half < n; base += size {
					u := x[base]
					v := x[base+half] * w
					x[base] = u + v
					x[base+half] = u - v
				}
			}
			continue
		}
		for base := 0; base < n; base += size {
			lo := x[base:][:half]
			hi := x[base+half:][:half]
			k := 0
			for off := range lo {
				u := lo[off]
				v := hi[off] * tw[k]
				lo[off] = u + v
				hi[off] = u - v
				k += step
			}
		}
	}
}

// Butterflies returns the number of butterfly operations Transform
// performs for length n: (n/2)·log2(n). Used for virtual-time charging.
func Butterflies(n int) int {
	if n <= 1 {
		return 0
	}
	lg := 0
	for m := n; m > 1; m >>= 1 {
		lg++
	}
	return n / 2 * lg
}

// Forward computes the in-place forward DFT.
func Forward(x []complex128) { transform(x, false) }

// Inverse computes the in-place unnormalized inverse DFT.
func Inverse(x []complex128) { transform(x, true) }
