package fft3d

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

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-30)
}

func TestAllVersionsMatchSequential(t *testing.T) {
	cfg := cfgSmall(4)
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Checksum == 0 {
		t.Fatal("zero checksum")
	}
	for _, v := range []core.Version{core.Tmk, core.SPF, core.SPFOpt, core.XHPF, core.PVMe} {
		r, err := New().Run(v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		// Reduction orders differ; complex128 keeps rounding tiny.
		if !relClose(r.Checksum, seq.Checksum, 1e-9) {
			t.Errorf("%s checksum = %v, want %v", v, r.Checksum, seq.Checksum)
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	cfg := cfgSmall(2)
	cfg.N1 = 12
	if _, err := New().Run(core.Seq, cfg); err == nil {
		t.Error("expected dimension error")
	}
}

// TestTmkBarrierCount: two barriers per iteration (§5.4).
func TestTmkBarrierCount(t *testing.T) {
	cfg := cfgSmall(8)
	r, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Iters * 2 * 2 * (cfg.Procs - 1))
	if got := r.Stats.MsgsOf(stats.KindBarrier); got != want {
		t.Errorf("barrier msgs = %d, want %d (two barriers per iteration)", got, want)
	}
}

// TestSPFSixLoops: six fork-join loops per iteration.
func TestSPFSixLoops(t *testing.T) {
	cfg := cfgSmall(8)
	r, err := New().Run(core.SPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Iters * 6 * 2 * (cfg.Procs - 1))
	if got := r.Stats.MsgsOf(stats.KindBarrier); got != want {
		t.Errorf("fork-join msgs = %d, want %d (six loops per iteration)", got, want)
	}
}

// TestAggregationCollapsesTransposeMessages: §5.4's headline — the
// shared-memory transpose faults pages one at a time (~30x hand-coded
// message passing); aggregation turns it into one request per writer.
func TestAggregationCollapsesTransposeMessages(t *testing.T) {
	// Each writer must own several planes for aggregation to collapse
	// requests (at paper size: 8 planes x 8 pages per writer).
	cfg := cfgSmall(8)
	cfg.N1, cfg.N2, cfg.N3 = 32, 32, 32
	base, err := New().Run(core.SPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New().Run(core.SPFOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.MsgsOf(stats.KindDiffReq)*2 > base.Stats.MsgsOf(stats.KindDiffReq) {
		t.Errorf("aggregated requests = %d, want << %d",
			opt.Stats.MsgsOf(stats.KindDiffReq), base.Stats.MsgsOf(stats.KindDiffReq))
	}
	if !relClose(opt.Checksum, base.Checksum, 1e-12) {
		t.Errorf("aggregation changed the result: %v vs %v", opt.Checksum, base.Checksum)
	}
	if opt.Time >= base.Time {
		t.Errorf("aggregated time = %v, want < %v", opt.Time, base.Time)
	}
}

// TestTmkManyMoreMessagesThanPVMe: the paper's ~30x transpose blow-up.
func TestTmkManyMoreMessagesThanPVMe(t *testing.T) {
	cfg := cfgSmall(8)
	tmkR, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pvmR, err := New().Run(core.PVMe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tmkR.Stats.TotalMsgs() < 2*pvmR.Stats.TotalMsgs() {
		t.Errorf("Tmk msgs = %d, PVMe msgs = %d: expected a clear blow-up",
			tmkR.Stats.TotalMsgs(), pvmR.Stats.TotalMsgs())
	}
}

// TestSpeedupOrdering at a mid size: PVMe > XHPF > Tmk > SPF, and the
// optimized SPF close to PVMe (Figure 1 + §5.4).
func TestSpeedupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size run")
	}
	cfg := cfgSmall(8)
	cfg.N1, cfg.N2, cfg.N3 = 64, 64, 32
	cfg.Iters = 3
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := map[core.Version]float64{}
	for _, v := range []core.Version{core.SPF, core.Tmk, core.XHPF, core.PVMe, core.SPFOpt} {
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
	if sp[core.SPFOpt] < sp[core.Tmk] {
		t.Errorf("aggregated SPF=%.2f should beat plain Tmk=%.2f", sp[core.SPFOpt], sp[core.Tmk])
	}
}

// TestDSMAllocatesWhatItTouches: see kerneltest.
func TestDSMAllocatesWhatItTouches(t *testing.T) { kerneltest.DSMAllocatesWhatItTouches(t, New()) }
