package stats

import (
	"strings"
	"testing"
)

// TestKindOrderPinned pins the canonical traffic-category order and
// names. The order is wire format: the sweep records' queue_kind_ns
// keys, Stats.String()'s breakdown segments and the obs attribution
// buckets all build on it, so reordering or renaming a Kind is a
// breaking schema change — this table must be updated deliberately
// alongside the trajectory file.
func TestKindOrderPinned(t *testing.T) {
	want := []struct {
		kind Kind
		name string
	}{
		{KindData, "data"},
		{KindBarrier, "barrier"},
		{KindLock, "lock"},
		{KindDiffReq, "diffreq"},
		{KindDiff, "diff"},
		{KindPageReq, "pagereq"},
		{KindPage, "page"},
		{KindControl, "control"},
		{KindShutdown, "shutdown"},
	}
	if int(numKinds) != len(want) {
		t.Fatalf("%d kinds, want %d — a new Kind must be added to this pinning table", numKinds, len(want))
	}
	all := AllKinds()
	for i, w := range want {
		if w.kind != Kind(i) {
			t.Errorf("position %d: %s declared out of canonical order", i, w.name)
		}
		if all[i] != w.kind {
			t.Errorf("AllKinds()[%d] = %v, want %v", i, all[i], w.kind)
		}
		if got := w.kind.String(); got != w.name {
			t.Errorf("Kind(%d).String() = %q, want %q", i, got, w.name)
		}
	}
}

// TestStatsStringCanonicalOrder pins that Stats.String() renders its
// per-kind segments in declaration order regardless of recording
// order, so log lines and golden outputs are stable.
func TestStatsStringCanonicalOrder(t *testing.T) {
	var s Stats
	// Record in scrambled order; rendering must come out canonical.
	s.Record(KindPage, 100)
	s.Record(KindBarrier, 50)
	s.Record(KindData, 200)
	s.Record(KindDiff, 70)
	out := s.String()
	idx := func(seg string) int {
		i := strings.Index(out, " "+seg+"=")
		if i < 0 {
			t.Fatalf("segment %q missing from %q", seg, out)
		}
		return i
	}
	if !(idx("data") < idx("barrier") && idx("barrier") < idx("diff") && idx("diff") < idx("page")) {
		t.Errorf("segments out of canonical order: %q", out)
	}
}
