// The seeded digest fault lives in an external test package: exp, which
// holds the join, imports the applications.
package mgs_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/apps/mgs"
	"repro/internal/core"
	"repro/internal/exp"
)

// TestDigestCatchesSwappedElements seeds a fault the checksum cannot
// see: the pvme run's output matrix — the reference basis, whose digest
// the run reports — with two neighbouring elements traded. The checksum
// stays bitwise seq's, so the record's join with seq's fails only on
// the digest.
func TestDigestCatchesSwappedElements(t *testing.T) {
	e := exp.New()
	record := func(v core.Version, procs int) exp.Record {
		s := exp.Spec{App: "MGS", Version: v, Procs: procs, Scale: core.SmallScale}.Normalize()
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
	q := mgs.ReferenceQ(mgs.New().Config(core.SmallScale, 1).N1)
	if d := apputil.Digest(q); d != run.Digest {
		t.Fatalf("the reference basis's digest is %d, the run's %d", d, run.Digest)
	}
	sum := apputil.Sum64(q)
	for k := 0; k+1 < len(q); k++ {
		if math.Float32bits(q[k]) == math.Float32bits(q[k+1]) {
			continue
		}
		q[k], q[k+1] = q[k+1], q[k]
		if apputil.Sum64(q) != sum {
			q[k], q[k+1] = q[k+1], q[k]
			continue
		}
		faulty := run
		faulty.Checksum, faulty.Digest = sum, apputil.Digest(q)
		if err := exp.Agree(faulty, seq); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("elements %d and %d swapped: join error %v, want a digest disagreement", k, k+1, err)
		}
		return
	}
	t.Fatal("no two neighbouring elements trade places without moving the checksum")
}
