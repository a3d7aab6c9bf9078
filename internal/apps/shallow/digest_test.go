// The seeded digest fault lives in an external test package: exp, which
// holds the join, imports the applications.
package shallow_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/apps/shallow"
	"repro/internal/core"
	"repro/internal/exp"
)

// TestDigestCatchesSwappedElements seeds a fault the checksum cannot
// see: the pvme run's output — p, u and v of the NCAR transcription,
// whose digest the run reports — with two neighbouring elements of p
// traded. The checksum stays bitwise seq's, so the record's join with
// seq's fails only on the digest.
func TestDigestCatchesSwappedElements(t *testing.T) {
	e := exp.New()
	record := func(v core.Version, procs int) exp.Record {
		s := exp.Spec{App: "Shallow", Version: v, Procs: procs, Scale: core.SmallScale}.Normalize()
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
	cfg := shallow.New().Config(core.SmallScale, 1)
	p, u, v := shallow.ReferenceOutput(cfg.N1, cfg.Warmup+cfg.Iters)
	checksum := func() float64 { return apputil.Sum64(p) + 2*apputil.Sum64(u) + 4*apputil.Sum64(v) }
	if d := apputil.Digest(p, u, v); d != run.Digest {
		t.Fatalf("the reference output's digest is %d, the run's %d", d, run.Digest)
	}
	sum := checksum()
	if sum != run.Checksum {
		t.Fatalf("the reference output's checksum is %v, the run's %v", sum, run.Checksum)
	}
	for k := 0; k+1 < len(p); k++ {
		if math.Float32bits(p[k]) == math.Float32bits(p[k+1]) {
			continue
		}
		p[k], p[k+1] = p[k+1], p[k]
		if checksum() != sum {
			p[k], p[k+1] = p[k+1], p[k]
			continue
		}
		faulty := run
		faulty.Checksum, faulty.Digest = sum, apputil.Digest(p, u, v)
		if err := exp.Agree(faulty, seq); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("p elements %d and %d swapped: join error %v, want a digest disagreement", k, k+1, err)
		}
		return
	}
	t.Fatal("no two neighbouring elements of p trade places without moving the checksum")
}
