package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordAndTotals(t *testing.T) {
	var s Stats
	s.Record(KindData, 100)
	s.Record(KindData, 200)
	s.Record(KindBarrier, 50)
	s.Record(KindShutdown, 999)

	if got := s.TotalMsgs(); got != 3 {
		t.Errorf("TotalMsgs = %d, want 3", got)
	}
	if got := s.TotalBytes(); got != 350 {
		t.Errorf("TotalBytes = %d, want 350", got)
	}
	if got := s.MsgsOf(KindData); got != 2 {
		t.Errorf("MsgsOf(data) = %d, want 2", got)
	}
	if got := s.BytesOf(KindBarrier); got != 50 {
		t.Errorf("BytesOf(barrier) = %d, want 50", got)
	}
}

func TestShutdownExcluded(t *testing.T) {
	if KindShutdown.Counted() {
		t.Error("shutdown traffic must not be counted")
	}
	for _, k := range AllKinds() {
		if k != KindShutdown && !k.Counted() {
			t.Errorf("kind %v should be counted", k)
		}
	}
}

func TestReset(t *testing.T) {
	var s Stats
	s.Record(KindDiff, 4096)
	s.Reset()
	if s.TotalMsgs() != 0 || s.TotalBytes() != 0 {
		t.Errorf("after Reset: %v", s.String())
	}
}

func TestTotalKB(t *testing.T) {
	var s Stats
	s.Record(KindPage, 4096)
	s.Record(KindPage, 4096)
	if got := s.TotalKB(); got != 8 {
		t.Errorf("TotalKB = %d, want 8", got)
	}
}

func TestAdd(t *testing.T) {
	var a, b Stats
	a.Record(KindData, 10)
	b.Record(KindData, 20)
	b.Record(KindLock, 5)
	a.Add(&b)
	if a.TotalMsgs() != 3 || a.TotalBytes() != 35 {
		t.Errorf("after Add: %s", a.String())
	}
}

func TestStringMentionsNonZeroKinds(t *testing.T) {
	var s Stats
	s.Record(KindDiffReq, 32)
	out := s.String()
	if !strings.Contains(out, "diffreq") {
		t.Errorf("String() = %q, want mention of diffreq", out)
	}
	if strings.Contains(out, "lock=") {
		t.Errorf("String() = %q mentions zero category", out)
	}
}

func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		KindData: "data", KindBarrier: "barrier", KindLock: "lock",
		KindDiffReq: "diffreq", KindDiff: "diff", KindPageReq: "pagereq",
		KindPage: "page", KindControl: "control", KindShutdown: "shutdown",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), name)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind = %q", got)
	}
}

// Property: totals always equal the sum over counted kinds, regardless of
// the record sequence.
func TestTotalsConsistentProperty(t *testing.T) {
	f := func(events []uint16) bool {
		var s Stats
		for _, e := range events {
			k := Kind(e % uint16(numKinds))
			s.Record(k, int(e%4097))
		}
		var msgs, bytes int64
		for _, k := range AllKinds() {
			if k.Counted() {
				msgs += s.MsgsOf(k)
				bytes += s.BytesOf(k)
			}
		}
		return msgs == s.TotalMsgs() && bytes == s.TotalBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordQueueSplit(t *testing.T) {
	var s Stats
	s.RecordQueue(100, QueueOut, KindData)
	s.RecordQueue(40, QueueIn, KindDiff)
	s.RecordQueue(60, QueueBackplane, KindData)
	if got := s.TotalQueueNanos(); got != 200 {
		t.Errorf("TotalQueueNanos = %d, want 200", got)
	}
	if got := s.TotalQueuedMsgs(); got != 3 {
		t.Errorf("TotalQueuedMsgs = %d, want 3", got)
	}
	if got := s.QueueResNanosOf(QueueOut); got != 100 {
		t.Errorf("QueueOut = %d, want 100", got)
	}
	if got := s.QueueResNanosOf(QueueIn); got != 40 {
		t.Errorf("QueueIn = %d, want 40", got)
	}
	if got := s.QueueResNanosOf(QueueBackplane); got != 60 {
		t.Errorf("QueueBackplane = %d, want 60", got)
	}
	if got := s.QueueKindNanosOf(KindData); got != 160 {
		t.Errorf("KindData queue = %d, want 160", got)
	}
	if got := s.QueueKindNanosOf(KindDiff); got != 40 {
		t.Errorf("KindDiff queue = %d, want 40", got)
	}
	// The resource split and the kind split each cover the total.
	var byRes, byKind int64
	for r := QueueResource(0); r < numQueueResources; r++ {
		byRes += s.QueueResNanosOf(r)
	}
	for _, k := range AllKinds() {
		byKind += s.QueueKindNanosOf(k)
	}
	if byRes != 200 || byKind != 200 {
		t.Errorf("splits cover %d (resource) / %d (kind), want 200 each", byRes, byKind)
	}

	// Add then Sub round-trips every new counter back to the original.
	var o Stats
	o.RecordQueue(7, QueueOut, KindLock)
	snap := s
	s.Add(&o)
	s.Sub(&o)
	if s != snap {
		t.Error("Add/Sub did not round-trip the queue split counters")
	}
}

func TestQueueResourceNames(t *testing.T) {
	want := []string{"out", "in", "backplane"}
	if int(numQueueResources) != len(want) {
		t.Fatalf("have %d resources, want %d", numQueueResources, len(want))
	}
	for i, w := range want {
		if r := QueueResource(i); r.String() != w {
			t.Errorf("resource %d = %q, want %q", i, r, w)
		}
	}
}
