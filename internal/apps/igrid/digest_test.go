// The seeded digest fault lives in an external test package: exp, which
// holds the join, imports the applications.
package igrid_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/apps/igrid"
	"repro/internal/core"
	"repro/internal/exp"
)

// TestDigestCatchesSwappedElements seeds a fault the checksum cannot
// see: the pvme run's output grid — the reference grid, whose digest the
// run reports — with two neighbouring elements traded. The checksum
// stays bitwise seq's, so the record's join with seq's fails only on
// the digest.
func TestDigestCatchesSwappedElements(t *testing.T) {
	e := exp.New()
	record := func(v core.Version, procs int) exp.Record {
		s := exp.Spec{App: "IGrid", Version: v, Procs: procs, Scale: core.SmallScale}.Normalize()
		res, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		return exp.RecordOf(s, res, nil)
	}
	seq, run := record(core.Seq, 1), record(core.PVMe, 3)
	if err := exp.Agree(run, seq); err != nil {
		t.Fatal(err)
	}
	cfg := igrid.New().Config(core.SmallScale, 1)
	n := cfg.N1
	g := igrid.ReferenceGrid(n, cfg.Warmup+cfg.Iters)
	if d := apputil.Digest(g); d != run.Digest {
		t.Fatalf("the reference grid's digest is %d, the run's %d", d, run.Digest)
	}
	sum := igrid.ReferenceChecksum(g, n)
	for k := 0; k+1 < len(g); k++ {
		if math.Float32bits(g[k]) == math.Float32bits(g[k+1]) {
			continue
		}
		g[k], g[k+1] = g[k+1], g[k]
		if igrid.ReferenceChecksum(g, n) != sum {
			g[k], g[k+1] = g[k+1], g[k]
			continue
		}
		faulty := run
		faulty.Checksum, faulty.Digest = sum, apputil.Digest(g)
		if err := exp.Agree(faulty, seq); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("elements %d and %d swapped: join error %v, want a digest disagreement", k, k+1, err)
		}
		return
	}
	t.Fatal("no two neighbouring elements trade places without moving the checksum")
}
