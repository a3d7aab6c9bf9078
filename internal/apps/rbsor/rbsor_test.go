package rbsor

import (
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/model"
)

func cfgFor(procs int) core.Config {
	cfg := New().Config(core.SmallScale, procs)
	cfg.Costs = model.SP2()
	cfg.App = model.DefaultAppCosts()
	return cfg
}

// TestVersionsAgree checks that every version — hand-coded and
// compiler-generated, shared-memory and message-passing — produces the
// sequential checksum bit for bit. Red-black SOR is deterministic
// under any row partition: each half-sweep only reads the other color,
// so the update order within a sweep cannot matter.
func TestVersionsAgree(t *testing.T) {
	a := New()
	seq, err := a.Run(core.Seq, cfgFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Checksum == 0 {
		t.Fatal("sequential checksum is zero; grid never initialized?")
	}
	for _, procs := range []int{1, 2, 4, 8} {
		for _, v := range []core.Version{core.Tmk, core.SPF, core.XHPF, core.PVMe, core.SPFGen, core.XHPFGen} {
			res, err := a.Run(v, cfgFor(procs))
			if err != nil {
				t.Fatalf("%s/p%d: %v", v, procs, err)
			}
			if res.Checksum != seq.Checksum {
				t.Errorf("%s/p%d checksum = %v, want %v", v, procs, res.Checksum, seq.Checksum)
			}
		}
	}
}

// TestSweepColors checks the parity split: one sweep of each color
// touches every interior point exactly once.
func TestSweepColors(t *testing.T) {
	const n = 16
	u := make([]float32, n*n)
	apputil.EdgesOne(u, n)
	red := sweepRows(u, n, 1, n-1, 0, 0)
	black := sweepRows(u, n, 1, n-1, 1, 0)
	if red+black != (n-2)*(n-2) {
		t.Errorf("red %d + black %d points, want %d", red, black, (n-2)*(n-2))
	}
}
