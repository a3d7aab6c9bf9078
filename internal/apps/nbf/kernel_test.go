package nbf

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
)

// buildPartnersRef is the straightforward builder: a map per molecule
// for the duplicate test, a slice per molecule for the list.
func buildPartnersRef(m, window, per int) [][]int32 {
	lists := make([][]int32, m)
	for i := 0; i < m; i++ {
		span := min(i, window)
		if span == 0 {
			continue
		}
		count := min(per, span)
		seen := make(map[int32]bool, count)
		list := make([]int32, 0, count+1)
		for k := 0; len(list) < count; k++ {
			j := int32(i - 1 - int(hash32(uint32(i*1009+k))%uint32(span)))
			if !seen[j] {
				seen[j] = true
				list = append(list, j)
			}
		}
		if i%farEvery == farEvery-1 {
			far := int32(hash32(uint32(i*31+7)) % uint32(i))
			if !seen[far] {
				list = append(list, far)
			}
		}
		lists[i] = list
	}
	return lists
}

// forceBlockRef is the straightforward force loop the kernel must match
// bit for bit, pair count included.
func forceBlockRef(buf, x, y, z []float32, lists [][]int32, lo, hi int) int {
	pairs := 0
	for i := lo; i < hi; i++ {
		for _, j := range lists[i] {
			g := pairForce(x[i], y[i], z[i], x[j], y[j], z[j])
			buf[i] += g
			buf[j] -= g
			pairs++
		}
	}
	return pairs
}

// scales are the (m, window, per) of the three core.Scale settings.
func scales() [][3]int {
	var out [][3]int
	for _, sc := range []core.Scale{core.SmallScale, core.MidScale, core.PaperScale} {
		c := New().Config(sc, 1)
		out = append(out, [3]int{c.N1, c.N2, c.N3})
	}
	return out
}

// TestBuildPartnersMatchesReference: same lists in the same order at
// every scale, far tail included, and window > m and per > window too.
func TestBuildPartnersMatchesReference(t *testing.T) {
	for _, g := range append(scales(), [3]int{200, 512, 100}, [3]int{farEvery * 3, 4, 9}, [3]int{0, 8, 4}) {
		got, want := buildPartners(g[0], g[1], g[2]), buildPartnersRef(g[0], g[1], g[2])
		far := 0
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("m=%d window=%d per=%d: molecule %d has partners %v, want %v", g[0], g[1], g[2], i, got[i], want[i])
			}
			if n := len(want[i]); n > 0 && int(want[i][n-1]) < i-g[1] {
				far++
			}
		}
		if g[0] > 2*farEvery+g[1] && far == 0 {
			t.Errorf("m=%d window=%d per=%d: no far partner compared", g[0], g[1], g[2])
		}
	}
}

// TestForceBlockBitwise compares the kernel with its reference on whole
// arrays, empty blocks and interior blocks whose partners fall outside.
func TestForceBlockBitwise(t *testing.T) {
	const m = 1024
	lists := buildPartnersRef(m, 64, 12)
	x, y, z := kerneltest.Noise(1, m), kerneltest.Noise(2, m), kerneltest.Noise(3, m)
	for _, b := range [][2]int{{0, m}, {0, 0}, {m / 2, m / 2}, {1, 2}, {m - 1, m}, {m / 3, 2 * m / 3}} {
		got := kerneltest.Noise(4, m)
		want := slices.Clone(got)
		gp := forceBlock(got, x, y, z, lists, b[0], b[1])
		wp := forceBlockRef(want, x, y, z, lists, b[0], b[1])
		what := fmt.Sprintf("molecules [%d,%d)", b[0], b[1])
		if gp != wp {
			t.Errorf("%s: %d pairs, want %d", what, gp, wp)
		}
		kerneltest.SameBits(t, what, got, want)
	}
}

// TestSharedPartnersStayReadOnly: every process of every run walks the
// process's one set of partner lists; no version may write them. Each
// version runs through App.Run, the cached path, and the cached lists
// must then still equal a fresh build. (forceBlockDSM has no reference
// of its own: the Tmk and SPF versions that use it must agree bitwise
// with XHPF and PVMe, which use forceBlock —
// TestParallelVersionsAgreeBitwise.)
func TestSharedPartnersStayReadOnly(t *testing.T) {
	cfg := cfgSmall(8)
	fresh := buildPartners(cfg.N1, cfg.N2, cfg.N3)
	for _, v := range New().Versions() {
		if _, err := New().Run(v, cfg); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		lists := sharedPartners(cfg.N1, cfg.N2, cfg.N3)
		for i := range fresh {
			if !slices.Equal(lists[i], fresh[i]) {
				t.Fatalf("%s wrote molecule %d's shared partner list", v, i)
			}
		}
	}
}

// TestPartnersBuiltOncePerSize: once a size has been asked for, no run
// of that size builds the partner lists again, whatever its version.
func TestPartnersBuiltOncePerSize(t *testing.T) {
	cfg := cfgSmall(8)
	partners.Delete([3]int{cfg.N1, cfg.N2, cfg.N3})
	before := partnerBuilds.Load()
	for range 2 {
		for _, v := range New().Versions() {
			if _, err := New().Run(v, cfg); err != nil {
				t.Fatalf("%s: %v", v, err)
			}
		}
	}
	if got := partnerBuilds.Load() - before; got != 1 {
		t.Errorf("two runs of every version built the partner lists %d times, want 1", got)
	}
}

// TestConcurrentRunsSharePartnersRaceFree: two runs at once, as two
// engine workers, both asking first for a size, walk one set of lists
// race-free and agree.
func TestConcurrentRunsSharePartnersRaceFree(t *testing.T) {
	cfg := cfgSmall(8)
	partners.Delete([3]int{cfg.N1, cfg.N2, cfg.N3})
	kerneltest.ConcurrentRuns(t, New(), cfg)
}

func BenchmarkForceBlock(b *testing.B) {
	c := New().Config(core.MidScale, 1)
	m := c.N1
	lists := buildPartners(m, c.N2, c.N3)
	x, y, z, buf := make([]float32, m), make([]float32, m), make([]float32, m), make([]float32, m)
	initCoords(x, y, z)
	pairs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(buf)
		pairs = forceBlock(buf, x, y, z, lists, 0, m)
	}
	kerneltest.ReportPer(b, "point", pairs)
}

func BenchmarkBuildPartners(b *testing.B) {
	c := New().Config(core.MidScale, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildPartners(c.N1, c.N2, c.N3)
	}
	kerneltest.ReportPer(b, "molecule", c.N1)
}
