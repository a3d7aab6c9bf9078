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

func BenchmarkStencilRows(b *testing.B) {
	const n = 1024
	src, dst := kerneltest.Noise(1, n*n), make([]float32, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stencilRows(dst, src, n, 1, n-1, 0, 0)
	}
	kerneltest.ReportPer(b, "point", (n-2)*(n-2))
}
