package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestRegionElapsed(t *testing.T) {
	r := NewRegion(3)
	r.Start(0, 100)
	r.Start(1, 120)
	r.Start(2, 110)
	r.End(0, 500)
	r.End(1, 540)
	r.End(2, 530)
	if got := r.Elapsed(); got != 440 {
		t.Errorf("Elapsed = %v, want 440 (540-100)", got)
	}
}

func TestRegionElapsedEmpty(t *testing.T) {
	r := NewRegion(2)
	if got := r.Elapsed(); got != 0 {
		t.Errorf("Elapsed on empty region = %v, want 0", got)
	}
}

func TestRegionTraffic(t *testing.T) {
	r := NewRegion(1)
	var st stats.Stats
	st.Record(stats.KindData, 100)
	st.Record(stats.KindBarrier, 10)
	r.Baseline(&st)
	st.Record(stats.KindData, 50)
	st.Record(stats.KindDiff, 4096)
	r.Final(&st)
	tr := r.Traffic()
	if tr.TotalMsgs() != 2 {
		t.Errorf("region msgs = %d, want 2", tr.TotalMsgs())
	}
	if tr.BytesOf(stats.KindData) != 50 {
		t.Errorf("region data bytes = %d, want 50", tr.BytesOf(stats.KindData))
	}
	if tr.BytesOf(stats.KindDiff) != 4096 {
		t.Errorf("region diff bytes = %d, want 4096", tr.BytesOf(stats.KindDiff))
	}
}

func TestRegionTrafficWithoutBaseline(t *testing.T) {
	r := NewRegion(1)
	var st stats.Stats
	st.Record(stats.KindData, 77)
	r.Final(&st)
	tr := r.Traffic()
	if got := tr.TotalBytes(); got != 77 {
		t.Errorf("traffic without baseline = %d, want 77", got)
	}
}

func TestSpeedup(t *testing.T) {
	r := Result{Time: 2 * sim.Second}
	if got := r.Speedup(16 * sim.Second); got != 8 {
		t.Errorf("Speedup = %v, want 8", got)
	}
	zero := Result{}
	if got := zero.Speedup(sim.Second); got != 0 {
		t.Errorf("Speedup with zero time = %v, want 0", got)
	}
}

// TestVersionTable: one row per version, each variant varies a base row
// on its own runtime, and only a variant carries a variant's facts.
func TestVersionTable(t *testing.T) {
	rows := VersionTable()
	if len(rows) != 11 {
		t.Fatalf("%d rows, want one per Version constant (11)", len(rows))
	}
	seen := map[Version]bool{}
	for _, row := range rows {
		if seen[row.Version] {
			t.Errorf("%s has two rows", row.Version)
		}
		seen[row.Version] = true
		if got := Describe(row.Version); got != row {
			t.Errorf("Describe(%s) = %+v, want its row", row.Version, got)
		}
		if row.Varies == "" {
			if row.Generated || row.OldInterface {
				t.Errorf("base version %s carries a variant's facts", row.Version)
			}
			continue
		}
		base := Describe(row.Varies)
		if base.Version == "" || base.Varies != "" || base.Runtime != row.Runtime {
			t.Errorf("%s varies %s, which is not a base version on runtime %s", row.Version, row.Varies, row.Runtime)
		}
	}
	if Describe("tmk-next") != (VersionInfo{}) {
		t.Error("Describe names a version the table lacks")
	}
	rows[0].Runtime = PVMRuntime
	if VersionTable()[0].Runtime != SeqRuntime {
		t.Error("VersionTable hands out the table itself")
	}
}

func TestResultString(t *testing.T) {
	r := Result{App: "Jacobi", Version: Tmk, Procs: 8, Time: sim.Second}
	s := r.String()
	if s == "" {
		t.Error("empty String()")
	}
}
