package shallow

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// ncarStep advances s by one time step through NCAR's three loops as
// the benchmark writes them: the grid is staggered, so each of cu, u
// and unew lives half a cell along the rows, each of cv, v and vnew
// half a cell along the columns, z at the corner between them and h
// with p at the point, and each array's periodic continuation copies
// towards the edge the loop did not compute. NCAR's (I,J) is row I-1,
// column J-1 here, and M = N = n-1. The constants and the time
// stepping are the package's (a leapfrog of 2·dt from the first step,
// smoothed every step), so the reference starts from the same init the
// six versions do. It is test-only: no record reads it.
func (s *state) ncarStep() {
	n, m := s.n, s.n-1
	ix := func(i, j int) int { return i*n + j }
	u, v, p, uold, vold, pold := s.u.data, s.v.data, s.p.data, s.uold.data, s.vold.data, s.pold.data
	cu, cv, z, h, unew, vnew, pnew := s.cu.data, s.cv.data, s.z.data, s.h.data, s.unew.data, s.vnew.data, s.pnew.data
	for i := 0; i < m; i++ { // loop 100
		for j := 0; j < m; j++ {
			cu[ix(i+1, j)] = 0.5 * (p[ix(i+1, j)] + p[ix(i, j)]) * u[ix(i+1, j)]
			cv[ix(i, j+1)] = 0.5 * (p[ix(i, j+1)] + p[ix(i, j)]) * v[ix(i, j+1)]
			z[ix(i+1, j+1)] = (fsdx*(v[ix(i+1, j+1)]-v[ix(i, j+1)]) - fsdy*(u[ix(i+1, j+1)]-u[ix(i+1, j)])) /
				(p[ix(i, j)] + p[ix(i+1, j)] + p[ix(i+1, j+1)] + p[ix(i, j+1)])
			h[ix(i, j)] = p[ix(i, j)] + 0.25*(u[ix(i+1, j)]*u[ix(i+1, j)]+u[ix(i, j)]*u[ix(i, j)]+
				v[ix(i, j+1)]*v[ix(i, j+1)]+v[ix(i, j)]*v[ix(i, j)])
		}
	}
	ncarWrap(cu, n, true, false)
	ncarWrap(cv, n, false, true)
	ncarWrap(z, n, true, true)
	ncarWrap(h, n, false, false)
	for i := 0; i < m; i++ { // loop 200
		for j := 0; j < m; j++ {
			unew[ix(i+1, j)] = uold[ix(i+1, j)] + tdts8*(z[ix(i+1, j+1)]+z[ix(i+1, j)])*
				(cv[ix(i+1, j+1)]+cv[ix(i, j+1)]+cv[ix(i, j)]+cv[ix(i+1, j)]) - tdtsdx*(h[ix(i+1, j)]-h[ix(i, j)])
			vnew[ix(i, j+1)] = vold[ix(i, j+1)] - tdts8*(z[ix(i+1, j+1)]+z[ix(i, j+1)])*
				(cu[ix(i+1, j+1)]+cu[ix(i, j+1)]+cu[ix(i, j)]+cu[ix(i+1, j)]) - tdtsdy*(h[ix(i, j+1)]-h[ix(i, j)])
			pnew[ix(i, j)] = pold[ix(i, j)] - tdtsdx*(cu[ix(i+1, j)]-cu[ix(i, j)]) - tdtsdy*(cv[ix(i, j+1)]-cv[ix(i, j)])
		}
	}
	ncarWrap(unew, n, true, false)
	ncarWrap(vnew, n, false, true)
	ncarWrap(pnew, n, false, false)
	for c := range u { // loop 300, over the whole periodic grid
		uold[c] = u[c] + alpha*(unew[c]-2*u[c]+uold[c])
		vold[c] = v[c] + alpha*(vnew[c]-2*v[c]+vold[c])
		pold[c] = p[c] + alpha*(pnew[c]-2*p[c]+pold[c])
		u[c], v[c], p[c] = unew[c], vnew[c], pnew[c]
	}
}

// ncarWrap is NCAR's periodic continuation of one n×n array: row 0 ←
// row n-1 when rowFromEnd (else row n-1 ← row 0), then the same for
// columns in every row, which also settles the corner.
func ncarWrap(a []float32, n int, rowFromEnd, colFromEnd bool) {
	m := n - 1
	if rowFromEnd {
		copy(a[:n], a[m*n:])
	} else {
		copy(a[m*n:], a[:n])
	}
	for i := 0; i < n; i++ {
		if colFromEnd {
			a[i*n] = a[i*n+m]
		} else {
			a[i*n+m] = a[i*n]
		}
	}
}

// kineticEnergy is Σ(u²+v²) over the (n-1)² distinct points of the
// periodic grid, in float64.
func (s *state) kineticEnergy() float64 {
	ke := 0.0
	for i := 0; i < s.n-1; i++ {
		for j := 0; j < s.n-1; j++ {
			u, v := float64(s.u.data[i*s.n+j]), float64(s.v.data[i*s.n+j])
			ke += u*u + v*v
		}
	}
	return ke
}

// TestNCARReferenceStaysBounded checks the NCAR transcription against
// itself: from the package's init at N = 64 it stays finite for 1 000
// steps, and its kinetic energy stays within keBound of the initial
// value at every step. TestSeqIsNCAR holds the package's kernels to it.
func TestNCARReferenceStaysBounded(t *testing.T) {
	const (
		n, steps = 64, 1000
		// keBound is the relative drift of Σ(u²+v²) allowed at any
		// step. Kinetic and potential energy trade back and forth: the
		// transcription's worst drift is 9.9 %, near step 500.
		keBound = 0.12
	)
	s := newLocalState(n)
	s.init(0, n)
	ke0 := s.kineticEnergy()
	worst := 0.0
	for k := 1; k <= steps; k++ {
		s.ncarStep()
		ke := s.kineticEnergy()
		if math.IsNaN(ke) || math.IsInf(ke, 0) {
			t.Fatalf("step %d: kinetic energy %v", k, ke)
		}
		worst = max(worst, math.Abs(ke/ke0-1))
		if math.Abs(ke/ke0-1) > keBound {
			t.Fatalf("step %d: kinetic energy %.6g, %.3g%% from the initial %.6g, want within %.3g%%",
				k, ke, 100*(ke/ke0-1), ke0, 100*keBound)
		}
	}
	t.Logf("worst kinetic-energy drift over %d steps: %.4g%%", steps, 100*worst)
}

// TestSeqIsNCAR: one step of the kernels every version shares is the
// NCAR transcription's, all 13 arrays bit for bit — on noise over tiny
// and odd grids, and from the package's init at small scale for 100
// steps, twice the paper's 50.
func TestSeqIsNCAR(t *testing.T) {
	for _, n := range []int{3, 4, 5, 64, 65} {
		got, want := noiseStates(n)
		got.step()
		want.ncarStep()
		sameState(t, fmt.Sprintf("noise n=%d", n), got, want)
	}
	n := New().Config(core.SmallScale, 1).N1
	got, want := newLocalState(n), newLocalState(n)
	got.init(0, n)
	want.init(0, n)
	for k := 1; k <= 100 && !t.Failed(); k++ {
		got.step()
		want.ncarStep()
		sameState(t, fmt.Sprintf("step %d", k), got, want)
	}
}
