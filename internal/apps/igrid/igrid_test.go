package igrid

import (
	"testing"

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
	for _, v := range []core.Version{core.Tmk, core.SPF, core.XHPF, core.PVMe} {
		r, err := New().Run(v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if r.Checksum != seq.Checksum {
			t.Errorf("%s checksum = %v, want %v (bitwise)", v, r.Checksum, seq.Checksum)
		}
	}
}

func TestSpikesPropagate(t *testing.T) {
	const n = 32
	old := make([]float32, n*n)
	cur := make([]float32, n*n)
	idx := buildMap(n)
	initOld(old, n)
	relaxRows(cur, old, idx, n, 1, n-1, 0, 0)
	// The middle spike's neighbors must have risen above the background.
	c := (n/2)*n + n/2
	if cur[c-1] <= 1 || cur[c+n] <= 1 {
		t.Errorf("spike did not spread: left=%v below=%v", cur[c-1], cur[c+n])
	}
	// Far corners stay at the background average of all-ones.
	if cur[1*n+1] != 1 {
		t.Errorf("far corner changed: %v", cur[1*n+1])
	}
}

// TestXHPFDataBlowup: the irregular-application headline (Table 3). The
// XHPF fallback broadcasts every block every iteration; TreadMarks sends
// only the diffs that actually changed (the spike fronts). The paper's
// ratio is 140001 KB vs 131 KB — three orders of magnitude.
func TestXHPFDataBlowup(t *testing.T) {
	cfg := cfgSmall(8)
	cfg.N1 = 220 // large enough that fixed protocol overheads don't mask the effect
	xr, err := New().Run(core.XHPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if xr.Stats.TotalBytes() < 50*tr.Stats.TotalBytes() {
		t.Errorf("XHPF bytes = %d, Tmk bytes = %d: expected a blow-up of >= 50x",
			xr.Stats.TotalBytes(), tr.Stats.TotalBytes())
	}
}

// TestXHPFBroadcastMessageCount: every processor ships its whole block
// to everyone, in 4 KB runtime chunks, every iteration.
func TestXHPFBroadcastMessageCount(t *testing.T) {
	cfg := cfgSmall(8)
	r, err := New().Run(core.XHPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, p := cfg.N1, cfg.Procs
	var perIter int
	for q := 0; q < p; q++ {
		qlo, qhi := 0, 0
		qlo, qhi = blockRows(q, p, n)
		block := (qhi - qlo) * n * 4 // bytes
		chunks := (block + 4095) / 4096
		perIter += chunks * (p - 1)
	}
	// broadcast chunks + one LoopSync per iteration, + the final
	// reduction traffic on the last iteration.
	syncPerIter := 2 * (p - 1)
	wantMin := int64(cfg.Iters * (perIter + syncPerIter))
	got := r.Stats.TotalMsgs()
	if got < wantMin || got > wantMin+int64(8*4*(p-1)) {
		t.Errorf("XHPF msgs = %d, want about %d", got, wantMin)
	}
}

// TestTmkTrafficTiny: diffs carry only the spike fronts, so the traffic
// is far below one grid per iteration (the volume every message-passing
// fallback ships).
func TestTmkTrafficTiny(t *testing.T) {
	cfg := cfgSmall(8)
	cfg.N1 = 220
	r, err := New().Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gridBytes := int64(cfg.N1 * cfg.N1 * 4)
	if got := r.Stats.TotalBytes(); got > gridBytes {
		t.Errorf("Tmk bytes = %d for %d iterations, want below one grid (%d)",
			got, cfg.Iters, gridBytes)
	}
}

// TestIrregularSpeedupOrdering: Figure 2's shape — the DSM versions land
// near hand-coded message passing and far above XHPF.
func TestIrregularSpeedupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the paper-size grid")
	}
	cfg := cfgSmall(8)
	cfg.N1 = 500
	cfg.Iters = 10
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
	if sp[core.SPF] <= sp[core.XHPF] || sp[core.Tmk] <= sp[core.XHPF] {
		t.Errorf("DSM must beat XHPF on irregular: SPF=%.2f Tmk=%.2f XHPF=%.2f",
			sp[core.SPF], sp[core.Tmk], sp[core.XHPF])
	}
	if sp[core.PVMe] < sp[core.Tmk]*0.95 {
		t.Errorf("PVMe=%.2f should be the upper bound (Tmk=%.2f)", sp[core.PVMe], sp[core.Tmk])
	}
}

// blockRows mirrors the app's interior-row partitioning for the test.
func blockRows(q, p, n int) (int, int) {
	chunk := (n - 2 + p - 1) / p
	lo := q * chunk
	hi := lo + chunk
	if hi > n-2 {
		hi = n - 2
	}
	if lo > n-2 {
		lo = n - 2
	}
	return lo + 1, hi + 1
}

var _ = stats.KindData

// TestXHPFTinyTailChunkGeometry pins the geometry that exposed the
// chunk-overtaking bug: at N1=500 on 4 processors each broadcast block
// is 62500 elements — 61 full 4 KB chunks plus a 36-element tail whose
// pack+overhead time undercuts a full chunk's wire time, so without
// per-chunk tags the tail overtook its predecessor and scrambled every
// block. The xhpf checksum must match sequential bitwise here.
func TestXHPFTinyTailChunkGeometry(t *testing.T) {
	cfg := core.Config{Procs: 1, N1: 500, Iters: 1, Warmup: 1,
		Costs: model.SP2(), App: model.DefaultAppCosts()}
	seq, err := New().Run(core.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = 4
	r, err := New().Run(core.XHPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum != seq.Checksum {
		t.Errorf("xhpf checksum = %v, want %v (bitwise; tail chunk overtook a full chunk?)",
			r.Checksum, seq.Checksum)
	}
}
