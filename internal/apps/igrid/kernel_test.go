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

// TestSharedMapStaysReadOnly: every process of every run reads the
// process's one map; no version may write it. Each version runs through
// App.Run, the cached path, and the cached map must then still equal a
// fresh build.
func TestSharedMapStaysReadOnly(t *testing.T) {
	cfg := cfgSmall(8)
	fresh := buildMap(cfg.N1)
	for _, v := range New().Versions() {
		if _, err := New().Run(v, cfg); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !slices.Equal(sharedMap(cfg.N1), fresh) {
			t.Fatalf("%s wrote the shared indirection map", v)
		}
	}
}

// TestMapBuiltOncePerSize: once a grid size has been asked for, no run
// of that size builds the map again, whatever its version.
func TestMapBuiltOncePerSize(t *testing.T) {
	cfg := cfgSmall(8)
	maps.Delete(cfg.N1)
	before := mapBuilds.Load()
	for range 2 {
		for _, v := range New().Versions() {
			if _, err := New().Run(v, cfg); err != nil {
				t.Fatalf("%s: %v", v, err)
			}
		}
	}
	if got := mapBuilds.Load() - before; got != 1 {
		t.Errorf("two runs of every version built the map %d times, want 1", got)
	}
}

// TestConcurrentRunsShareMapRaceFree: two runs at once, as two engine
// workers, both asking first for a size, read one map race-free and
// agree.
func TestConcurrentRunsShareMapRaceFree(t *testing.T) {
	cfg := cfgSmall(8)
	maps.Delete(cfg.N1)
	kerneltest.ConcurrentRuns(t, New(), cfg)
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
