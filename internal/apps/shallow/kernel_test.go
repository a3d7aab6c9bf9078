package shallow

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
)

// initRef is the straightforward per-point original init must match
// bit for bit.
func (s *state) initRef() {
	n := s.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := i*n + j
			a := 2 * math.Pi * float64(i) / float64(n-1)
			b := 2 * math.Pi * float64(j) / float64(n-1)
			s.u.data[c] = float32(math.Sin(a) * math.Cos(b) * 10)
			s.v.data[c] = float32(-math.Cos(a) * math.Sin(b) * 10)
			s.p.data[c] = float32(50000 + 1000*math.Cos(a)*math.Cos(b))
			s.uold.data[c], s.vold.data[c], s.pold.data[c] = s.u.data[c], s.v.data[c], s.p.data[c]
		}
	}
}

// noiseStates returns two states with the same noise in all 13 arrays.
// Pressures are shifted away from zero so loop100's quotient stays
// finite.
func noiseStates(n int) (*state, *state) {
	a, b := newLocalState(n), newLocalState(n)
	for k, arr := range a.slots() {
		copy(arr.data, kerneltest.Noise(uint32(n+k), n*n))
	}
	for i := range a.p.data {
		a.p.data[i] += 8
	}
	for k, arr := range a.slots() {
		copy(b.slots()[k].data, arr.data)
	}
	return a, b
}

func sameState(t *testing.T, what string, got, want *state) {
	t.Helper()
	for k, arr := range want.slots() {
		kerneltest.SameBits(t, what+" "+arrayNames[k], got.slots()[k].data, arr.data)
	}
}

func TestInitBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 64, 65} {
		got, want := newLocalState(n), newLocalState(n)
		got.init(0, n)
		want.initRef()
		sameState(t, fmt.Sprintf("init n=%d", n), got, want)
	}
}

// restrict returns a state holding, of each array k in ks, only the
// rows rows(k) of src's copy; the other arrays hold nothing, so a
// kernel that touches a row outside what a version validates or stores
// panics.
func restrict(src *state, rows func(k int) (int, int), ks ...int) *state {
	n := src.n
	s := &state{n: n}
	for _, k := range ks {
		lo, hi := rows(k)
		*s.slots()[k] = band{append([]float32(nil), src.slots()[k].data[lo*n:hi*n]...), lo, n}
	}
	return s
}

// TestLoopsBitwise runs each loop over bands of rows — tiny and odd
// grids, empty bands and single first and last rows included — on
// states holding only the rows its DSM validation names (inputRows and
// computed for loops 100 and 200, the band itself for loop 300), and
// compares every output row bit for bit with one pass over the whole
// grid.
func TestLoopsBitwise(t *testing.T) {
	type loop struct {
		name      string
		run       func(*state, int, int) int
		in, halo  []int // inputs read on their computed rows, and with their halos
		out       []int
		pointwise bool
	}
	loops := []loop{
		{"loop100", (*state).loop100, nil, puv, groupA, false},
		{"loop200", (*state).loop200, olds, groupA, groupB, false},
		{"loop300", (*state).loop300, groupB, nil, states, true},
	}
	for _, n := range []int{3, 4, 5, 64, 65} {
		for _, l := range loops {
			whole, _ := noiseStates(n)
			l.run(whole, 0, n)
			for _, b := range [][2]int{{0, n}, {0, 0}, {0, 1}, {1, 2}, {n - 2, n - 1}, {n - 1, n}, {n / 3, n - n/3}} {
				lo, hi := b[0], b[1]
				rows := func(k int) (int, int) {
					rlo, rhi := lo, hi
					switch {
					case l.pointwise:
					case slices.Contains(l.halo, k):
						rlo, rhi = whole.inputRows(k, lo, hi)
					default:
						rlo, rhi = whole.computed(k, lo, hi)
					}
					return rlo, max(rlo, rhi)
				}
				src, _ := noiseStates(n)
				part := restrict(src, rows, slices.Concat(l.in, l.halo, l.out)...)
				l.run(part, lo, hi)
				for _, k := range l.out {
					rlo, rhi := rows(k)
					what := fmt.Sprintf("%s n=%d rows [%d,%d): %s", l.name, n, lo, hi, arrayNames[k])
					kerneltest.SameBits(t, what, part.slots()[k].data, whole.slots()[k].data[rlo*n:rhi*n])
				}
			}
		}
	}
}

// benchLoop times one of the three loops inside whole sequential time
// steps, so that the arrays hold what the application feeds it.
func benchLoop(b *testing.B, which int) {
	n := New().Config(core.MidScale, 1).N1
	s := newLocalState(n)
	s.init(0, n)
	phases := []func() int{
		func() int { return s.loop100(0, n) },
		func() int { return s.loop200(0, n) },
		func() int { return s.loop300(0, n) },
	}
	wraps := [][]int{groupA, groupB, nil}
	pts := 0
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		for k, phase := range phases {
			if k == which {
				b.StartTimer()
				pts = phase()
				b.StopTimer()
			} else {
				phase()
			}
			s.wrapCols(0, n, wraps[k]...)
			s.wrapRows(wraps[k]...)
		}
	}
	kerneltest.ReportPer(b, "element", pts)
}

func BenchmarkLoop100(b *testing.B) { benchLoop(b, 0) }
func BenchmarkLoop200(b *testing.B) { benchLoop(b, 1) }
func BenchmarkLoop300(b *testing.B) { benchLoop(b, 2) }

func BenchmarkInit(b *testing.B) {
	n := New().Config(core.MidScale, 1).N1
	s := newLocalState(n)
	for i := 0; i < b.N; i++ {
		s.init(0, n)
	}
	kerneltest.ReportPer(b, "point", n*n)
}
