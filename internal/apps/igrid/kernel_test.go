package igrid

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
)

// buildMapRef is the straightforward map builder.
func buildMapRef(n int) []int32 {
	idx := make([]int32, 9*n*n)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			c := i*n + j
			k := 0
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					idx[9*c+k] = int32((i+di)*n + (j + dj))
					k++
				}
			}
		}
	}
	return idx
}

// relaxRowsRef is the straightforward relaxation the row-slice kernel
// must match bit for bit.
func relaxRowsRef(dst, src []float32, idx []int32, n, rlo, rhi int) {
	for i := rlo; i < rhi; i++ {
		for j := 1; j < n-1; j++ {
			c := i*n + j
			var s float32
			for k := 0; k < 9; k++ {
				s += src[idx[9*c+k]]
			}
			dst[c] = s / 9
		}
	}
}

func TestBuildMapMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 60, 65} {
		if got, want := buildMap(n), buildMapRef(n); !slices.Equal(got, want) {
			t.Errorf("n=%d: map differs from the reference", n)
		}
	}
}

// TestRelaxRowsBitwise compares the kernel with its reference over tiny
// and odd grids, empty bands and single first and last interior rows,
// on whole arrays and on the views a DSM node holds: a destination of
// the band alone, a source of the band and its halo rows.
func TestRelaxRowsBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 64, 65} {
		src, idx := kerneltest.Noise(uint32(n), n*n), buildMapRef(n)
		for _, b := range kerneltest.Bands(n) {
			rlo, rhi := b[0], b[1]
			want := kerneltest.Noise(7, n*n)
			relaxRowsRef(want, src, idx, n, rlo, rhi)
			for _, off := range [][2]int{{0, 0}, {rlo, rlo - 1}} {
				dstOff, srcOff := off[0], off[1]
				got := kerneltest.Noise(7, n*n)
				relaxRows(got[dstOff*n:], src[srcOff*n:(rhi+1)*n], idx, n, rlo, rhi, dstOff, srcOff)
				kerneltest.SameBits(t, fmt.Sprintf("n=%d rows [%d,%d) dstOff=%d srcOff=%d", n, rlo, rhi, dstOff, srcOff), got, want)
			}
		}
	}
}

// TestSharedMapStaysReadOnly: the eight simulated processes of a run
// read one map; no version may write it.
func TestSharedMapStaysReadOnly(t *testing.T) {
	cfg := cfgSmall(8)
	for _, v := range New().Versions() {
		idx := buildMap(cfg.N1)
		before := slices.Clone(idx)
		if _, err := run(v, cfg, idx); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !slices.Equal(idx, before) {
			t.Errorf("%s wrote the shared indirection map", v)
		}
	}
}

// TestMapBuiltOncePerRun: the map is built by the run, not by each of
// its simulated processes.
func TestMapBuiltOncePerRun(t *testing.T) {
	cfg := cfgSmall(8)
	for _, v := range New().Versions() {
		before := mapBuilds.Load()
		if _, err := New().Run(v, cfg); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if got := mapBuilds.Load() - before; got != 1 {
			t.Errorf("%s built the map %d times, want 1", v, got)
		}
	}
}

// TestConcurrentRunsShareNothing: a run's map is shared by its own
// processes only; two runs at once must be race-free and agree.
func TestConcurrentRunsShareNothing(t *testing.T) {
	kerneltest.ConcurrentRuns(t, New(), cfgSmall(8))
}

func BenchmarkRelaxRows(b *testing.B) {
	n := New().Config(core.MidScale, 1).N1
	src, dst, idx := kerneltest.Noise(1, n*n), make([]float32, n*n), buildMap(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relaxRows(dst, src, idx, n, 1, n-1, 0, 0)
	}
	kerneltest.ReportPer(b, "point", (n-2)*(n-2))
}

func BenchmarkBuildMap(b *testing.B) {
	n := New().Config(core.MidScale, 1).N1
	for i := 0; i < b.N; i++ {
		buildMap(n)
	}
	kerneltest.ReportPer(b, "point", (n-2)*(n-2))
}
