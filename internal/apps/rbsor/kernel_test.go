package rbsor

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps/kerneltest"
)

// sweepRowsRef is the straightforward test-and-skip sweep the stride-2
// kernel must match bit for bit, point count included.
func sweepRowsRef(u []float32, n, rlo, rhi, color int) int {
	cnt := 0
	for i := rlo; i < rhi; i++ {
		s := i * n
		for j := 1; j < n-1; j++ {
			if (i+j)&1 != color {
				continue
			}
			u[s+j] = cSelf*u[s+j] + cStencil*(u[s-n+j]+u[s+n+j]+u[s+j-1]+u[s+j+1])
			cnt++
		}
	}
	return cnt
}

// TestSweepRowsBitwise compares the kernel with its reference for both
// colors over tiny, even and odd grids, empty bands and single first
// and last interior rows (whose first point of a color differs), on the
// whole grid and on a copy that holds only the band and its one-row
// halo (parity must still follow the global row).
func TestSweepRowsBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 64, 65} {
		for _, b := range kerneltest.Bands(n) {
			for color := 0; color < 2; color++ {
				for _, off := range []int{0, b[0] - 1} {
					want := kerneltest.Noise(uint32(n), n*n)
					got := slices.Clone(want[off*n : min(b[1]+1, n)*n])
					gc := sweepRows(got, n, b[0], b[1], color, off)
					wc := sweepRowsRef(want, n, b[0], b[1], color)
					what := fmt.Sprintf("n=%d rows [%d,%d) color %d off %d", n, b[0], b[1], color, off)
					if gc != wc {
						t.Errorf("%s: %d points, want %d", what, gc, wc)
					}
					kerneltest.SameBits(t, what, got, want[off*n:min(b[1]+1, n)*n])
				}
			}
		}
	}
}

func BenchmarkSweepRows(b *testing.B) {
	const n = 1024
	u := kerneltest.Noise(1, n*n)
	for i := range u {
		u[i] = 2 + u[i]/2 // in (1, 3): the relaxation converges, whatever b.N
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepRows(u, n, 1, n-1, i&1, 0)
	}
	kerneltest.ReportPer(b, "point", (n-2)*(n-2)/2)
}
