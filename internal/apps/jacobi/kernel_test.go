package jacobi

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps/kerneltest"
)

// stencilRowsRef is the straightforward stencil the row-slice kernel
// must match bit for bit.
func stencilRowsRef(dst, src []float32, n, rlo, rhi, dstOff int) {
	for i := rlo; i < rhi; i++ {
		d := (i - dstOff) * n
		s := i * n
		for j := 1; j < n-1; j++ {
			dst[d+j] = 0.25 * (src[s-n+j] + src[s+n+j] + src[s+j-1] + src[s+j+1])
		}
	}
}

// TestStencilRowsBitwise compares the kernel with its reference over
// awkward geometry: tiny and odd grids, empty bands, single first and
// last interior rows, private bands stored at an offset, and a source
// that holds only the band and its one-row halo.
func TestStencilRowsBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 64, 65} {
		src := kerneltest.Noise(uint32(n), n*n)
		for _, b := range kerneltest.Bands(n) {
			rlo, rhi := b[0], b[1]
			for _, dstOff := range []int{0, rlo} {
				rows := n
				if dstOff != 0 {
					rows = max(rhi-rlo, 1)
				}
				for _, srcOff := range []int{0, rlo - 1} {
					got := kerneltest.Noise(7, rows*n)
					want := slices.Clone(got)
					stencilRows(got, src[srcOff*n:min(rhi+1, n)*n], n, rlo, rhi, dstOff, srcOff)
					stencilRowsRef(want, src, n, rlo, rhi, dstOff)
					kerneltest.SameBits(t, fmt.Sprintf("n=%d rows [%d,%d) dstOff=%d srcOff=%d", n, rlo, rhi, dstOff, srcOff), got, want)
				}
			}
		}
	}
}

// TestCopyRowsOffsets moves a band between arrays stored at different
// row bases: interior columns only, nothing outside the band.
func TestCopyRowsOffsets(t *testing.T) {
	const n = 9
	src := kerneltest.Noise(3, n*n)
	for _, b := range kerneltest.Bands(n) {
		rlo, rhi := b[0], b[1]
		for _, offs := range [][2]int{{0, 0}, {rlo, 0}, {0, rlo}, {rlo - 1, rlo}} {
			dstOff, srcOff := offs[0], offs[1]
			got := make([]float32, (n-dstOff)*n)
			copyRows(got, src[srcOff*n:], n, rlo, rhi, dstOff, srcOff)
			want := make([]float32, (n-dstOff)*n)
			for i := rlo; i < rhi; i++ {
				for j := 1; j < n-1; j++ {
					want[(i-dstOff)*n+j] = src[i*n+j]
				}
			}
			kerneltest.SameBits(t, fmt.Sprintf("rows [%d,%d) dstOff=%d srcOff=%d", rlo, rhi, dstOff, srcOff), got, want)
		}
	}
}

// relaxRowsRef is the two-array step relaxRows fuses: the stencil into
// a scratch grid, then the interior copied back.
func relaxRowsRef(g []float32, n, rlo, rhi, off int) {
	scratch := make([]float32, len(g))
	stencilRows(scratch, g, n, rlo, rhi, off, off)
	copyRows(g, scratch, n, rlo, rhi, off, off)
}

// TestRelaxRowsBitwise holds the in-place step to the two-array one over
// the same geometry, on storage based at row 0 (seq's grid) and at
// rlo-1 (band's block and halo), with a line buffer that starts dirty:
// every bit of the grid, the halo and edges included, must agree.
func TestRelaxRowsBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 64, 65} {
		for _, b := range kerneltest.Bands(n) {
			rlo, rhi := b[0], b[1]
			for _, off := range []int{0, rlo - 1} {
				want := kerneltest.Noise(uint32(n+off), (min(rhi+1, n)-off)*n)
				got := slices.Clone(want)
				relaxRows(got, kerneltest.Noise(9, 2*n), n, rlo, rhi, off)
				relaxRowsRef(want, n, rlo, rhi, off)
				kerneltest.SameBits(t, fmt.Sprintf("n=%d rows [%d,%d) off=%d", n, rlo, rhi, off), got, want)
			}
		}
	}
}

// TestTmkStepBitwise holds runTmk's split step to the two-array one:
// the edge rows computed from a view of the band and its halo, the
// interior relaxed in place in a view of the band alone, then the edge
// rows copied in. The views are cut as Read and Write cut them, capacity
// clipped, and the edge and line buffers start dirty; blocks of one,
// two and three rows have no interior or a one-row one.
func TestTmkStepBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 64, 65} {
		bands := append(kerneltest.Bands(n), [2]int{n / 2, n/2 + 2}, [2]int{n / 2, n/2 + 3})
		for _, b := range bands {
			lo, hi := b[0], min(b[1], n-1)
			if hi <= lo {
				continue
			}
			want := kerneltest.Noise(uint32(n+lo), n*n)
			got := slices.Clone(want)
			relaxRowsRef(want, n, lo, hi, 0)
			edge := kerneltest.Noise(5, 2*n)
			edgeRows(edge, got[(lo-1)*n:(hi+1)*n:(hi+1)*n], n, lo, hi, lo-1)
			w := got[lo*n : hi*n : hi*n]
			relaxRows(w, kerneltest.Noise(9, 2*n), n, lo+1, hi-1, lo)
			copyEdgeRows(w, edge, n, lo, hi, lo)
			kerneltest.SameBits(t, fmt.Sprintf("n=%d rows [%d,%d)", n, lo, hi), got, want)
		}
	}
}

func BenchmarkRelaxRows(b *testing.B) {
	const n = 1024
	g, line := kerneltest.Noise(1, n*n), make([]float32, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relaxRows(g, line, n, 1, n-1, 0)
	}
	kerneltest.ReportPer(b, "point", (n-2)*(n-2))
}

func BenchmarkStencilRows(b *testing.B) {
	const n = 1024
	src, dst := kerneltest.Noise(1, n*n), make([]float32, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stencilRows(dst, src, n, 1, n-1, 0, 0)
	}
	kerneltest.ReportPer(b, "point", (n-2)*(n-2))
}
