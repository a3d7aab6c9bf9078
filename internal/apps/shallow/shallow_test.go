package shallow

import (
	"math"
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/stats"
)

func cfgSmall(procs int) core.Config {
	c := New().Config(core.SmallScale, procs)
	c.Costs = model.SP2()
	c.App = model.DefaultAppCosts()
	return c
}

func TestAllVersionsMatchSequential(t *testing.T) {
	cfg := cfgSmall(4)
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Checksum == 0 || math.IsNaN(seq.Checksum) {
		t.Fatalf("bad sequential checksum %v", seq.Checksum)
	}
	for _, v := range []core.Version{core.Tmk, core.SPF, core.SPFOpt, core.XHPF, core.PVMe} {
		r, err := New().Run(v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if r.Checksum != seq.Checksum {
			t.Errorf("%s checksum = %v, want %v (bitwise)", v, r.Checksum, seq.Checksum)
		}
	}
}

func TestRaggedPartition(t *testing.T) {
	cfg := cfgSmall(3) // 63 rows over 3 procs: 21 each; n rows over ceil
	seq, _ := New().Run(core.Seq, cfg)
	for _, v := range []core.Version{core.Tmk, core.XHPF, core.PVMe} {
		r, err := New().Run(v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if r.Checksum != seq.Checksum {
			t.Errorf("%s ragged checksum = %v, want %v", v, r.Checksum, seq.Checksum)
		}
	}
}

// TestEnergyStaysBounded sanity-checks the physics: the smoothed scheme
// must not blow up over the test horizon.
func TestEnergyStaysBounded(t *testing.T) {
	const n = 32
	s := newLocalState(n)
	s.init(0, n)
	for k := 0; k < 20; k++ {
		s.loop100(0, n-1)
		wrapCols(s.groupA(), n, 0, n-1)
		for _, a := range s.groupA() {
			wrapRow(a, n)
		}
		s.loop200(0, n-1)
		wrapCols(s.groupB(), n, 0, n-1)
		for _, a := range s.groupB() {
			wrapRow(a, n)
		}
		s.loop300(0, n)
	}
	for i, v := range s.p {
		if math.IsNaN(float64(v)) || v < 10000 || v > 90000 {
			t.Fatalf("pressure diverged at %d: %v", i, v)
		}
	}
}

// TestTmkThreeBarriers: the hand-coded version synchronizes three times
// per iteration.
func TestTmkThreeBarriers(t *testing.T) {
	cfg := cfgSmall(8)
	r, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Iters * 3 * 2 * (cfg.Procs - 1))
	if got := r.Stats.MsgsOf(stats.KindBarrier); got != want {
		t.Errorf("barrier msgs = %d, want %d", got, want)
	}
}

// TestSPFLoopCount: the compiler-generated version dispatches five
// parallel loops per iteration (three main loops plus two wrap loops);
// the merged optimization removes the wrap loops.
func TestSPFLoopCount(t *testing.T) {
	cfg := cfgSmall(8)
	base, err := New().Run(core.SPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New().Run(core.SPFOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBase := int64(cfg.Iters * 5 * 2 * (cfg.Procs - 1))
	if got := base.Stats.MsgsOf(stats.KindBarrier); got != wantBase {
		t.Errorf("SPF fork-join msgs = %d, want %d (5 loops/iter)", got, wantBase)
	}
	wantOpt := int64(cfg.Iters * 3 * 2 * (cfg.Procs - 1))
	if got := opt.Stats.MsgsOf(stats.KindBarrier); got != wantOpt {
		t.Errorf("merged fork-join msgs = %d, want %d (3 loops/iter)", got, wantOpt)
	}
}

// TestMergedLoopsFaster: §5.2's hand optimization must help.
func TestMergedLoopsFaster(t *testing.T) {
	cfg := cfgSmall(8)
	cfg.N1 = 256
	base, err := New().Run(core.SPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New().Run(core.SPFOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Time >= base.Time {
		t.Errorf("merged time = %v, want < %v", opt.Time, base.Time)
	}
	if opt.Checksum != base.Checksum {
		t.Error("merged optimization changed the result")
	}
}

// TestSpeedupOrdering: Figure 1's Shallow shape at mid size:
// PVMe > XHPF > Tmk > SPF.
func TestSpeedupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size run")
	}
	cfg := cfgSmall(8)
	cfg.N1 = 512
	cfg.Iters = 6
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
	if !(sp[core.PVMe] > sp[core.Tmk] && sp[core.Tmk] > sp[core.SPF]) {
		t.Errorf("ordering violated: PVMe=%.2f Tmk=%.2f SPF=%.2f", sp[core.PVMe], sp[core.Tmk], sp[core.SPF])
	}
	if sp[core.XHPF] <= sp[core.Tmk] {
		t.Errorf("XHPF=%.2f should beat Tmk=%.2f on a regular app", sp[core.XHPF], sp[core.Tmk])
	}
}

// TestDSMAllocatesWhatItTouches: see kerneltest.
func TestDSMAllocatesWhatItTouches(t *testing.T) { kerneltest.DSMAllocatesWhatItTouches(t, New()) }
