package mgs

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/stats"
)

func cfgSmall(procs int) core.Config {
	c := New().Config(core.SmallScale, procs)
	c.Costs = model.SP2()
	c.App = model.DefaultAppCosts()
	return c
}

// TestAllVersionsMatchSequential runs past eight processors too: at
// small scale a vector is a sixteenth of a page, so tmk-opt's broadcast
// covers no page whole, and from 24 processors on process 0 never
// rewrites a page whose initialization diff a receiver would otherwise
// lay over the broadcast vector.
func TestAllVersionsMatchSequential(t *testing.T) {
	seq, err := New().Run(core.Seq, cfgSmall(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{4, 24, 25, 32} {
		for _, p := range proto.Names() {
			cfg := cfgSmall(procs)
			cfg.Protocol = p
			for _, v := range []core.Version{core.Tmk, core.TmkOpt, core.SPF, core.XHPF, core.PVMe} {
				r, err := New().Run(v, cfg)
				if err != nil {
					t.Fatalf("%s at %d procs under %s: %v", v, procs, p, err)
				}
				if r.Checksum != seq.Checksum {
					t.Errorf("%s at %d procs under %s: checksum = %v, want %v (bitwise)", v, procs, p, r.Checksum, seq.Checksum)
				}
			}
		}
	}
}

// TestTmkOptMatchesSequentialAtMidScale: at mid scale (the paper's
// size) a vector is exactly one page, so the broadcast covers pages
// whole and settles their write notices without a fault. It must settle
// every writer's — process 0 initialized the matrix — or the homeless
// protocol repairs the page with the initialization diff, over the
// broadcast vector (checksum 432.9 at 4 processes, NaN at 8).
func TestTmkOptMatchesSequentialAtMidScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mid scale: about a second a run")
	}
	cfgMid := func(procs int, p proto.Name) core.Config {
		c := New().Config(core.MidScale, procs)
		c.Costs = model.SP2()
		c.App = model.DefaultAppCosts()
		c.Protocol = p
		return c
	}
	seq, err := New().Run(core.Seq, cfgMid(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range proto.Names() {
		for _, procs := range []int{2, 4, 8} {
			r, err := New().Run(core.TmkOpt, cfgMid(procs, p))
			if err != nil {
				t.Fatalf("%s procs=%d: %v", p, procs, err)
			}
			if r.Checksum != seq.Checksum {
				t.Errorf("%s procs=%d: checksum = %v, want %v (bitwise)", p, procs, r.Checksum, seq.Checksum)
			}
		}
	}
}

// TestOrthonormality checks the math: after the run, rows are unit
// length and mutually orthogonal.
func TestOrthonormality(t *testing.T) {
	const n = 32
	m := make([]float32, n*n)
	initMatrix(m, n)
	for i := 0; i < n; i++ {
		normalizeRow(m[i*n : (i+1)*n])
		for j := i + 1; j < n; j++ {
			orthoRow(m[j*n:(j+1)*n], m[i*n:(i+1)*n])
		}
	}
	for i := 0; i < n; i++ {
		if d := dot64(m[i*n:(i+1)*n], m[i*n:(i+1)*n]); math.Abs(d-1) > 1e-5 {
			t.Errorf("|row %d|^2 = %v, want 1", i, d)
		}
		for j := i + 1; j < n; j++ {
			if d := dot64(m[i*n:(i+1)*n], m[j*n:(j+1)*n]); math.Abs(d) > 5e-3 {
				t.Errorf("<row %d, row %d> = %v, want 0", i, j, d)
			}
		}
	}
}

// TestPVMeMessageFormula: exactly (n-1) broadcast messages per
// iteration (paper: 7168 messages for 1024 iterations on 8 processors).
func TestPVMeMessageFormula(t *testing.T) {
	cfg := cfgSmall(8)
	r, err := New().Run(core.PVMe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Iters * (cfg.Procs - 1))
	if got := r.Stats.TotalMsgs(); got != want {
		t.Errorf("PVMe msgs = %d, want %d", got, want)
	}
}

// TestTmkBroadcastOptimization: the §5.3 hand optimization must cut the
// per-iteration traffic from barrier+faults to a single broadcast.
func TestTmkBroadcastOptimization(t *testing.T) {
	cfg := cfgSmall(8)
	base, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New().Run(core.TmkOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.TotalMsgs() >= base.Stats.TotalMsgs() {
		t.Errorf("broadcast msgs = %d, want < %d", opt.Stats.TotalMsgs(), base.Stats.TotalMsgs())
	}
	if opt.Time >= base.Time {
		t.Errorf("broadcast time = %v, want < %v", opt.Time, base.Time)
	}
	if opt.Checksum != base.Checksum {
		t.Errorf("optimization changed the result")
	}
}

// TestTmkBarrierCount: hand-coded TreadMarks synchronizes once per
// iteration.
func TestTmkBarrierCount(t *testing.T) {
	cfg := cfgSmall(8)
	r, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Iters * 2 * (cfg.Procs - 1))
	if got := r.Stats.MsgsOf(stats.KindBarrier); got != want {
		t.Errorf("barrier msgs = %d, want %d (one barrier per iteration)", got, want)
	}
}

// TestDiffAccumulationKeepsTrafficLinear: the vector fetched at
// iteration i has been written in up to i earlier intervals; lazy
// diffing with domination must deliver its current contents as one
// accumulated diff. Without domination the fetch would drag the whole
// write history along and total diff volume would grow like N³ (for
// N=512: hundreds of MB). We assert the linear regime: every matrix
// byte moves O(1) times.
func TestDiffAccumulationKeepsTrafficLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("needs page-sized vectors")
	}
	// Paper geometry: a 1024-element single-precision vector is exactly
	// one page, so pages are single-writer. (At N=512 two cyclically
	// owned vectors share a page and false sharing legitimately
	// dominates the traffic — that is the paper's §1 false-sharing
	// factor, not a protocol defect.)
	cfg := cfgSmall(8)
	cfg.N1, cfg.Iters = 1024, 1024
	r, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	matrixBytes := int64(cfg.N1 * cfg.N1 * 4)
	if got := r.Stats.BytesOf(stats.KindDiff); got > 16*matrixBytes {
		t.Errorf("diff bytes = %d, want <= %d (linear in matrix size)", got, 16*matrixBytes)
	}
}

// TestSpeedupOrdering at a mid size: PVMe > XHPF > Tmk > SPF (Figure 1).
func TestSpeedupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("uses a bigger matrix")
	}
	cfg := cfgSmall(8)
	cfg.N1, cfg.Iters = 512, 512
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := map[core.Version]float64{}
	for _, v := range []core.Version{core.SPF, core.Tmk, core.XHPF, core.PVMe} {
		r, err := New().Run(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp[v] = r.Speedup(seq.Time)
	}
	t.Logf("speedups: %+v", sp)
	if !(sp[core.PVMe] > sp[core.XHPF] && sp[core.XHPF] > sp[core.Tmk] && sp[core.Tmk] > sp[core.SPF]) {
		t.Errorf("ordering violated: PVMe=%.2f XHPF=%.2f Tmk=%.2f SPF=%.2f",
			sp[core.PVMe], sp[core.XHPF], sp[core.Tmk], sp[core.SPF])
	}
}
