// The home-based LRC smoke tests live in an external test package so
// they can drive the full application suite through internal/exp and
// internal/harness (which import the apps, which import tmk).
package tmk_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/tmk"
)

// TestHLRCSmoke exercises the home-based protocol directly on the raw
// DSM interface: interleaved writer blocks with cross-node reads.
func TestHLRCSmoke(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		sys := tmk.NewSystem(n, model.SP2(), tmk.WithProtocol(proto.HomeLRC))
		err := sys.Run(func(tm *tmk.Tmk) {
			r := tmk.Alloc[float32](tm, "a", 4096)
			chunk := 4096 / tm.NProcs()
			lo := tm.ID() * chunk
			for k := 0; k < 4; k++ {
				w := r.Write(lo, lo+chunk)
				for i := lo; i < lo+chunk; i++ {
					w[i-lo] = float32(k*10 + tm.ID())
				}
				tm.Barrier()
				g := r.Read(0, 4096)
				for q := 0; q < tm.NProcs(); q++ {
					if g[q*chunk] != float32(k*10+q) {
						t.Errorf("n=%d k=%d: a[%d]=%v want %v", n, k, q*chunk, g[q*chunk], float32(k*10+q))
						return
					}
				}
				tm.Barrier()
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		t.Logf("n=%d msgs=%d kb=%d", n, sys.Stats().TotalMsgs(), sys.Stats().TotalKB())
	}
}

// TestHLRCSmokeAllApps runs every DSM version of every application at
// 2 processors under the home-based protocol, comparing each checksum
// against the homeless-LRC run of the same version. It runs under
// -short (small scale, 2 procs), so every hlrc protocol path — eager
// flushes, whole-page fetches, pushes, broadcasts, the optimized and
// legacy-interface variants — gets smoke coverage in the fast suite,
// not just the one representative version the protocols experiment
// sweeps.
func TestHLRCSmokeAllApps(t *testing.T) {
	const procs = 2
	for _, a := range exp.Apps() {
		for _, v := range harness.DSMVersions(a) {
			run := func(p proto.Name) core.Result {
				t.Helper()
				s := exp.Spec{App: a.Name(), Version: v, Procs: procs, Scale: core.SmallScale, Protocol: p}
				res, err := exp.New().Run(s)
				if err != nil {
					t.Fatalf("%s/%s under %s: %v", a.Name(), v, p, err)
				}
				return res
			}
			hlrc := run(proto.HomeLRC)
			lrc := run(proto.HomelessLRC)
			if hlrc.Checksum != lrc.Checksum {
				t.Errorf("%s/%s: hlrc checksum %g != lrc checksum %g",
					a.Name(), v, hlrc.Checksum, lrc.Checksum)
			}
			if hlrc.Stats.TotalMsgs() == 0 && lrc.Stats.TotalMsgs() != 0 {
				t.Errorf("%s/%s: hlrc sent no messages but lrc sent %d",
					a.Name(), v, lrc.Stats.TotalMsgs())
			}
		}
	}
}
