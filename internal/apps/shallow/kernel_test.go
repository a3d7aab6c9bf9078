package shallow

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
)

// The *Ref methods are the straightforward per-point originals the
// row-slice kernels must match bit for bit, point counts included.

func (s *state) initRef() {
	n := s.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := i*n + j
			a := 2 * math.Pi * float64(i) / float64(n-1)
			b := 2 * math.Pi * float64(j) / float64(n-1)
			s.u[c] = float32(math.Sin(a) * math.Cos(b) * 10)
			s.v[c] = float32(-math.Cos(a) * math.Sin(b) * 10)
			s.p[c] = float32(50000 + 1000*math.Cos(a)*math.Cos(b))
			s.uold[c], s.vold[c], s.pold[c] = s.u[c], s.v[c], s.p[c]
		}
	}
}

func (s *state) loop100Ref(rlo, rhi int) int {
	n := s.n
	pts := 0
	for i := rlo; i < rhi; i++ {
		for j := 0; j < n-1; j++ {
			c := i*n + j
			s.cu[c] = 0.5 * (s.p[c+n] + s.p[c]) * s.u[c+n]
			s.cv[c] = 0.5 * (s.p[c+1] + s.p[c]) * s.v[c+1]
			s.z[c] = (fsdx*(s.v[c+n+1]-s.v[c+1]) - fsdy*(s.u[c+n+1]-s.u[c+n])) /
				(s.p[c] + s.p[c+n] + s.p[c+n+1] + s.p[c+1])
			s.h[c] = s.p[c] + 0.25*(s.u[c+n]*s.u[c+n]+s.u[c]*s.u[c]+
				s.v[c+1]*s.v[c+1]+s.v[c]*s.v[c])
			pts++
		}
	}
	return pts
}

func (s *state) loop200Ref(rlo, rhi int) int {
	n := s.n
	pts := 0
	for i := rlo; i < rhi; i++ {
		for j := 0; j < n-1; j++ {
			c := i*n + j
			s.unew[c] = s.uold[c] + tdts8*(s.z[c+1]+s.z[c])*
				(s.cv[c+n+1]+s.cv[c+1]+s.cv[c]+s.cv[c+n]) - tdtsdx*(s.h[c+n]-s.h[c])
			s.vnew[c] = s.vold[c] - tdts8*(s.z[c+n]+s.z[c])*
				(s.cu[c+n+1]+s.cu[c+1]+s.cu[c]+s.cu[c+n]) - tdtsdy*(s.h[c+1]-s.h[c])
			s.pnew[c] = s.pold[c] - tdtsdx*(s.cu[c+n]-s.cu[c]) - tdtsdy*(s.cv[c+1]-s.cv[c])
			pts++
		}
	}
	return pts
}

func (s *state) loop300Ref(rlo, rhi int) int {
	n := s.n
	pts := 0
	for i := rlo; i < rhi; i++ {
		for j := 0; j < n; j++ {
			c := i*n + j
			s.uold[c] = s.u[c] + alpha*(s.unew[c]-2*s.u[c]+s.uold[c])
			s.vold[c] = s.v[c] + alpha*(s.vnew[c]-2*s.v[c]+s.vold[c])
			s.pold[c] = s.p[c] + alpha*(s.pnew[c]-2*s.p[c]+s.pold[c])
			s.u[c] = s.unew[c]
			s.v[c] = s.vnew[c]
			s.p[c] = s.pnew[c]
			pts++
		}
	}
	return pts
}

func (s *state) arrays() [][]float32 {
	return [][]float32{s.u, s.v, s.p, s.uold, s.vold, s.pold, s.unew, s.vnew, s.pnew, s.cu, s.cv, s.z, s.h}
}

// noiseStates returns two states with the same noise in all 13 arrays.
// Pressures are shifted away from zero so loop100's quotient stays
// finite.
func noiseStates(n int) (*state, *state) {
	a, b := newLocalState(n), newLocalState(n)
	for k, arr := range a.arrays() {
		copy(arr, kerneltest.Noise(uint32(n+k), n*n))
	}
	for i := range a.p {
		a.p[i] += 8
	}
	for k, arr := range a.arrays() {
		copy(b.arrays()[k], arr)
	}
	return a, b
}

func sameState(t *testing.T, what string, got, want *state) {
	t.Helper()
	names := []string{"u", "v", "p", "uold", "vold", "pold", "unew", "vnew", "pnew", "cu", "cv", "z", "h"}
	for k, arr := range want.arrays() {
		kerneltest.SameBits(t, what+" "+names[k], got.arrays()[k], arr)
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

// TestLoopsBitwise compares the three kernels with their references
// over tiny and odd grids, empty bands and single first and last rows.
func TestLoopsBitwise(t *testing.T) {
	loops := []struct {
		name     string
		fast     func(*state, int, int) int
		ref      func(*state, int, int) int
		wrapRows int // rows beyond n-1 the loop may cover
	}{
		{"loop100", (*state).loop100, (*state).loop100Ref, 0},
		{"loop200", (*state).loop200, (*state).loop200Ref, 0},
		{"loop300", (*state).loop300, (*state).loop300Ref, 1},
	}
	for _, n := range []int{3, 4, 5, 64, 65} {
		for _, l := range loops {
			last := n - 1 + l.wrapRows
			for _, b := range [][2]int{{0, last}, {0, 0}, {0, 1}, {last - 1, last}, {n / 2, n / 2}, {n / 3, n - n/3}} {
				got, want := noiseStates(n)
				gp := l.fast(got, b[0], b[1])
				wp := l.ref(want, b[0], b[1])
				what := fmt.Sprintf("%s n=%d rows [%d,%d)", l.name, n, b[0], b[1])
				if gp != wp {
					t.Errorf("%s: %d points, want %d", what, gp, wp)
				}
				sameState(t, what, got, want)
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
		func() int { return s.loop100(0, n-1) },
		func() int { return s.loop200(0, n-1) },
		func() int { return s.loop300(0, n) },
	}
	wraps := [][][]float32{s.groupA(), s.groupB(), nil}
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
			wrapCols(wraps[k], n, 0, n-1)
			for _, a := range wraps[k] {
				wrapRow(a, n)
			}
		}
	}
	kerneltest.ReportPer(b, "point", pts)
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
