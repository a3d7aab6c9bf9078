// The seeded wsum fault lives in an external test package: exp, which
// holds the join, imports the applications.
package nbf_test

import (
	"strings"
	"testing"

	"repro/internal/apps/nbf"
	"repro/internal/core"
	"repro/internal/exp"
)

// TestWSumCatchesSwappedMolecules seeds a fault the checksum cannot
// see: the pvme run's output — seq's coordinates, whose checksum and
// wsum the run reports — with two neighbouring molecules traded, all
// three coordinates of each. The checksum stays bitwise seq's, so the
// record's join with seq's fails only on the wsum.
func TestWSumCatchesSwappedMolecules(t *testing.T) {
	e := exp.New()
	record := func(v core.Version, procs int) exp.Record {
		s := exp.Spec{App: "NBF", Version: v, Procs: procs, Scale: core.SmallScale}.Normalize()
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
	x, y, z := nbf.SeqCoords(nbf.New().Config(core.SmallScale, 1))
	sum := nbf.CoordSum(x, y, z)
	if sum != run.Checksum || nbf.WSum(x, y, z) != run.WSum {
		t.Fatalf("seq's coordinates give checksum %v and wsum %v, the run %v and %v", sum, nbf.WSum(x, y, z), run.Checksum, run.WSum)
	}
	swap := func(i int) {
		for _, c := range [3][]float32{x, y, z} {
			c[i], c[i+1] = c[i+1], c[i]
		}
	}
	for i := 0; i+1 < len(x); i++ {
		swap(i)
		if nbf.CoordSum(x, y, z) != sum {
			swap(i)
			continue
		}
		faulty := run
		faulty.WSum = nbf.WSum(x, y, z)
		if err := exp.Agree(faulty, seq); err == nil || !strings.Contains(err.Error(), "wsum") {
			t.Errorf("molecules %d and %d swapped: join error %v, want a wsum disagreement", i, i+1, err)
		}
		return
	}
	t.Fatal("no two neighbouring molecules trade places without moving the checksum")
}
