package jacobi

import (
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/sim"
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
	if seq.Checksum == 0 {
		t.Fatal("sequential checksum is zero; grid not evolving")
	}
	for _, v := range []core.Version{core.Tmk, core.SPF, core.SPFOpt, core.SPFOld, core.XHPF, core.PVMe} {
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
	// 3 procs on a 64-grid: 62 interior rows split 21/21/20 on the DSM,
	// 64 rows split 22/22/20 under message passing.
	cfg := cfgSmall(3)
	seq, _ := New().Run(core.Seq, cfg)
	for _, v := range []core.Version{core.Tmk, core.SPF, core.XHPF, core.PVMe} {
		r, err := New().Run(v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if r.Checksum != seq.Checksum {
			t.Errorf("%s ragged checksum = %v, want %v", v, r.Checksum, seq.Checksum)
		}
	}
}

// TestMessagePassingAllocatesWhatItOwns: a message-passing processor
// holds its block of rows and a halo, so the bytes a run allocates must
// not grow with the processor count the way per-processor whole grids
// did (eight grids at eight processors). The slack covers message
// payloads and the simulator's own state.
func TestMessagePassingAllocatesWhatItOwns(t *testing.T) {
	_, one := kerneltest.Allocated(t, New(), core.XHPF, 1, "")
	_, eight := kerneltest.Allocated(t, New(), core.XHPF, 8, "")
	if 2*eight > 3*one {
		t.Errorf("Jacobi xhpf at mid scale allocates %d bytes on 8 processors, %d on 1: more than 1.5x — a full grid per processor is back",
			eight, one)
	}
}

// TestDSMAllocatesWhatItTouches: see kerneltest.
func TestDSMAllocatesWhatItTouches(t *testing.T) { kerneltest.DSMAllocatesWhatItTouches(t, New()) }

// TestHomeBasedRepliesReuseTheirBuffers: under the home-based protocol
// every fault is answered with a whole page, and a fresh 4 KB buffer per
// reply put the 8-processor run at 3.15x the bytes of the 1-processor
// run. Replies draw from and return to the region's page-buffer list
// (tmk.TestPageBuffersAreRecycled counts the buffers), so the run is
// held to the 3x the homeless protocol is held to.
func TestHomeBasedRepliesReuseTheirBuffers(t *testing.T) {
	_, one := kerneltest.Allocated(t, New(), core.Tmk, 1, proto.HomeLRC)
	_, eight := kerneltest.Allocated(t, New(), core.Tmk, 8, proto.HomeLRC)
	if eight > 3*one {
		t.Errorf("Jacobi tmk under hlrc at mid scale allocates %d bytes on 8 processors, %d on 1: more than 3x", eight, one)
	}
}

// TestPVMeMessageFormula: the hand-coded message-passing version sends
// exactly 2*(procs-1) boundary rows per iteration and nothing else
// (paper: 1400 messages for 100 iterations on 8 processors).
func TestPVMeMessageFormula(t *testing.T) {
	cfg := cfgSmall(8)
	cfg.Iters = 5
	r, err := New().Run(core.PVMe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Iters * 2 * (cfg.Procs - 1))
	if got := r.Stats.TotalMsgs(); got != want {
		t.Errorf("PVMe msgs = %d, want %d", got, want)
	}
}

// TestTmkMessageStructure: per iteration the hand-coded TreadMarks
// version needs 2 barriers (2*2*(n-1) msgs) plus the boundary-row
// faults: each interior processor faults 2 neighbor rows, edge
// processors 1. At the small size a row is sub-page so false sharing
// makes page counts size-dependent; we check the barrier component
// exactly and the fault component within structural bounds.
func TestTmkMessageStructure(t *testing.T) {
	cfg := cfgSmall(8)
	cfg.Iters = 6
	r, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBarrier := int64(cfg.Iters * 2 * 2 * (cfg.Procs - 1))
	if got := r.Stats.MsgsOf(stats.KindBarrier); got != wantBarrier {
		t.Errorf("barrier msgs = %d, want %d", got, wantBarrier)
	}
	faults := r.Stats.MsgsOf(stats.KindDiffReq)
	if faults == 0 {
		t.Error("expected boundary-row faults")
	}
	// At most 2 pages per boundary per direction per iteration.
	maxFaults := int64(cfg.Iters * 2 * 2 * (cfg.Procs - 1))
	if faults > maxFaults {
		t.Errorf("fault requests = %d, want <= %d", faults, maxFaults)
	}
}

// TestAggregationReducesMessages: the §5.1 hand optimization must lower
// the message count without changing the result. The effect needs a
// boundary row spanning multiple pages of the same writer (paper: a
// 2048-element boundary column covers two pages, so the unaggregated
// version takes two faults and four messages where one request
// suffices), so this test needs N=2048 (8 KB rows = two pages).
func TestAggregationReducesMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("needs 2048-wide rows so a boundary spans two pages")
	}
	cfg := cfgSmall(8)
	cfg.N1 = 2048
	cfg.Iters = 2
	base, err := New().Run(core.SPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New().Run(core.SPFOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.TotalMsgs() >= base.Stats.TotalMsgs() {
		t.Errorf("aggregated msgs = %d, want < %d", opt.Stats.TotalMsgs(), base.Stats.TotalMsgs())
	}
	if opt.Checksum != base.Checksum {
		t.Errorf("aggregation changed the result: %v vs %v", opt.Checksum, base.Checksum)
	}
}

// TestOldInterfaceCostsMore: §2.3's ablation at the application level.
func TestOldInterfaceCostsMore(t *testing.T) {
	cfg := cfgSmall(8)
	improved, err := New().Run(core.SPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	old, err := New().Run(core.SPFOld, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if old.Stats.TotalMsgs() <= improved.Stats.TotalMsgs() {
		t.Errorf("old interface msgs = %d, want > %d", old.Stats.TotalMsgs(), improved.Stats.TotalMsgs())
	}
	if old.Time <= improved.Time {
		t.Errorf("old interface time = %v, want > %v", old.Time, improved.Time)
	}
}

// TestDSMDataVolumeTiny: the signature Table 2 effect — the TreadMarks
// versions move far less data than message passing because diffs carry
// only changed bytes and Jacobi's interior stays zero for many
// iterations. The effect needs the big-grid regime where boundary rows
// are mostly unchanged (at toy sizes the write-notice overhead and the
// propagation front dominate).
func TestDSMDataVolumeTiny(t *testing.T) {
	cfg := cfgSmall(8)
	cfg.N1 = 512
	cfg.Iters = 10
	tmkR, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pvmR, err := New().Run(core.PVMe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tmkR.Stats.TotalBytes() >= pvmR.Stats.TotalBytes() {
		t.Errorf("Tmk bytes = %d, want < PVMe bytes = %d", tmkR.Stats.TotalBytes(), pvmR.Stats.TotalBytes())
	}
}

// TestSpeedupOrdering: at paper scale the paper's ranking is
// PVMe > XHPF > Tmk > SPF. Run a reduced-but-meaningful size and check
// the ordering of the two ends and the DSM pair.
func TestSpeedupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering test uses a bigger grid")
	}
	cfg := cfgSmall(8)
	cfg.N1 = 512
	cfg.Iters = 10
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := map[core.Version]float64{}
	for _, v := range []core.Version{core.SPF, core.Tmk, core.PVMe, core.XHPF} {
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
	if sp[core.XHPF] <= sp[core.SPF] {
		t.Errorf("XHPF=%.2f should beat SPF=%.2f on a regular app", sp[core.XHPF], sp[core.SPF])
	}
}

// TestRankingSurvivesLatency: on Jacobi at mid scale and 8 processors,
// PVMe still beats SPF with the interconnect latency halved and
// doubled — the paper's version ranking does not hang on the
// calibration. At the calibrated latency PVMe takes 0.490 s to SPF's
// 0.524 s.
func TestRankingSurvivesLatency(t *testing.T) {
	for _, scale := range []float64{0.5, 2} {
		cfg := New().Config(core.MidScale, 8)
		cfg.Costs = model.SP2()
		cfg.Costs.Latency = sim.Time(float64(cfg.Costs.Latency) * scale)
		cfg.App = model.DefaultAppCosts()
		spf, err := New().Run(core.SPF, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pvme, err := New().Run(core.PVMe, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pvme.Time >= spf.Time {
			t.Errorf("latency ×%g: PVMe %v is no faster than SPF %v", scale, pvme.Time, spf.Time)
		}
	}
}

func TestSequentialDeterministic(t *testing.T) {
	cfg := cfgSmall(1)
	a, _ := New().Run(core.Seq, cfg)
	b, _ := New().Run(core.Seq, cfg)
	if a.Checksum != b.Checksum || a.Time != b.Time {
		t.Errorf("sequential run not deterministic: %v/%v vs %v/%v", a.Checksum, a.Time, b.Checksum, b.Time)
	}
}

// TestPushOptimization: §8's push — boundary diffs travel with the
// barrier instead of being pulled by page faults afterwards. Same
// result, no diff requests, fewer messages, less time.
func TestPushOptimization(t *testing.T) {
	// Needs a geometry where only the two adjacent processors write a
	// boundary page (at 64x64, 16 rows share each page and a third
	// writer without a push pairing still faults).
	cfg := cfgSmall(8)
	cfg.N1, cfg.Iters = 256, 3
	base, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	push, err := New().Run(core.TmkPush, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if push.Checksum != base.Checksum {
		t.Errorf("push changed the result: %v vs %v", push.Checksum, base.Checksum)
	}
	if got := push.Stats.MsgsOf(stats.KindDiffReq); got != 0 {
		t.Errorf("push version still took %d diff requests", got)
	}
	// Pushes fire at every barrier, replacing each request/reply fault
	// pair one-for-one, so counts tie; the §8 win is the hidden fetch
	// latency (asserted below via time).
	if push.Stats.TotalMsgs() > base.Stats.TotalMsgs() {
		t.Errorf("push msgs = %d, want <= %d", push.Stats.TotalMsgs(), base.Stats.TotalMsgs())
	}
	if push.Time >= base.Time {
		t.Errorf("push time = %v, want < %v", push.Time, base.Time)
	}
}
