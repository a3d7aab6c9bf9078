package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestNilTraceIsDisabled pins the zero-overhead-when-disabled contract:
// every method of a nil *Trace is a safe no-op, so call sites need no
// guards.
func TestNilTraceIsDisabled(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Error("nil trace reports enabled")
	}
	tr.SetTopology(8, 4)
	tr.Span(EvWait, 0, 10, 5, stats.KindData, -1, 0)
	tr.Instant(EvBarrierArrive, 0, 10, stats.KindBarrier, -1, 1)
	if tr.Len() != 0 {
		t.Error("nil trace collected events")
	}
	if tr.Procs() != 0 || tr.Nodes() != 0 {
		t.Error("nil trace has a topology")
	}
	if tr.NodeOf(3) != 3 {
		t.Errorf("nil trace NodeOf(3) = %d, want identity", tr.NodeOf(3))
	}
	if tr.IsServer(7) {
		t.Error("nil trace claims a server process")
	}
	bds := tr.Attribute([][2]int64{{100, 300}})
	if bds[0].Compute != 200 || bds[0].Total != 200 || bds[0].WaitSum() != 0 {
		t.Errorf("nil trace attribution = %+v, want all-compute", bds[0])
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Errorf("nil trace Chrome doc: %d events, err %v; want an empty valid doc", n, err)
	}
}

// TestTopology pins the process-to-node mapping conventions, including
// the paired app+server layout (procs = 2*nodes, upper half servers).
func TestTopology(t *testing.T) {
	tr := New()
	tr.SetTopology(8, 4)
	for p := 0; p < 8; p++ {
		if got := tr.NodeOf(p); got != p%4 {
			t.Errorf("NodeOf(%d) = %d, want %d", p, got, p%4)
		}
		if got := tr.IsServer(p); got != (p >= 4) {
			t.Errorf("IsServer(%d) = %v, want %v", p, got, p >= 4)
		}
	}
	tr.SetTopology(4, 4) // no paired servers
	if tr.IsServer(3) {
		t.Error("unpaired topology claims a server process")
	}
}

// TestAttribute exercises the synthetic attribution cases: kind
// categorization, the queue carve-out, window clipping, and events
// outside the window or on unknown processes.
func TestAttribute(t *testing.T) {
	tr := New()
	tr.SetTopology(2, 2)
	// Node 0: one wait per category, plus a queueing carve.
	tr.Span(EvWait, 0, 100, 50, stats.KindDiff, -1, 0)     // fault
	tr.Span(EvWait, 0, 200, 30, stats.KindBarrier, -1, 0)  // barrier
	tr.Span(EvWait, 0, 300, 20, stats.KindLock, -1, 0)     // lock
	tr.Span(EvWait, 0, 400, 40, stats.KindData, -1, 15)    // data 25 + queue 15
	tr.Span(EvWait, 0, 500, 10, stats.KindShutdown, -1, 0) // other
	// Instants and non-wait spans never count toward attribution.
	tr.Instant(EvBarrierArrive, 0, 550, stats.KindBarrier, -1, 7)
	tr.Span(EvFault, 0, 560, 100, stats.KindPage, 3, 2)
	// Node 1: a wait straddling the window start is clipped, one fully
	// outside is dropped, and an oversized queue arg clamps to the wait.
	tr.Span(EvWait, 1, 50, 100, stats.KindPage, -1, 0)  // clips to [100,150]
	tr.Span(EvWait, 1, 950, 100, stats.KindData, -1, 0) // clips to [950,1000]
	tr.Span(EvWait, 1, 1200, 50, stats.KindData, -1, 0) // outside entirely
	// Unknown process ids are ignored.
	tr.Span(EvWait, 5, 100, 50, stats.KindData, -1, 0)

	bds := tr.Attribute([][2]int64{{0, 1000}, {100, 1000}})
	b0 := bds[0]
	if b0.Fault != 50 || b0.Barrier != 30 || b0.Lock != 20 || b0.Data != 25 ||
		b0.Queue != 15 || b0.Other != 10 {
		t.Errorf("node 0 = %+v, want fault 50 barrier 30 lock 20 data 25 queue 15 other 10", b0)
	}
	if b0.Compute != 1000-b0.WaitSum() {
		t.Errorf("node 0 compute = %d, want window remainder %d", b0.Compute, 1000-b0.WaitSum())
	}
	b1 := bds[1]
	if b1.Fault != 50 || b1.Data != 50 || b1.Compute != 800 {
		t.Errorf("node 1 = %+v, want fault 50 data 50 compute 800 (clipping)", b1)
	}
	// The exactness invariant: components sum to the window everywhere.
	for _, b := range bds {
		if b.Compute+b.WaitSum() != b.Total {
			t.Errorf("node %d: compute %d + waits %d != total %d", b.Node, b.Compute, b.WaitSum(), b.Total)
		}
	}
	// Queue args clamp to the wait duration.
	tr2 := New()
	tr2.Span(EvWait, 0, 0, 10, stats.KindData, -1, 99)
	if b := tr2.Attribute([][2]int64{{0, 100}})[0]; b.Queue != 10 || b.Data != 0 {
		t.Errorf("oversized queue arg: %+v, want queue 10 data 0", b)
	}
}

// TestAttributePanics pins the assertion behaviour: malformed windows
// and broken emitters (overlap, negative duration) panic rather than
// producing a silently wrong decomposition.
func TestAttributePanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Errorf("%s: panic %v, want mention of %q", name, r, want)
			}
		}()
		f()
	}
	mustPanic("inverted window", "before it starts", func() {
		New().Attribute([][2]int64{{100, 50}})
	})
	mustPanic("negative duration", "negative wait", func() {
		tr := New()
		tr.Span(EvWait, 0, 100, -5, stats.KindData, -1, 0)
		tr.Attribute([][2]int64{{0, 1000}})
	})
	mustPanic("overlapping waits", "overlap", func() {
		tr := New()
		tr.Span(EvWait, 0, 100, 50, stats.KindData, -1, 0)
		tr.Span(EvWait, 0, 120, 50, stats.KindData, -1, 0)
		tr.Attribute([][2]int64{{0, 1000}})
	})
	// Note the negative-compute assertion in Attribute is defensive-only:
	// non-overlapping waits clipped to the window can never exceed it,
	// and overlap panics first. No test can reach it through the API.
}

// TestCategoryOf pins the kind-to-bucket mapping the breakdown tables
// depend on.
func TestCategoryOf(t *testing.T) {
	want := map[stats.Kind]Category{
		stats.KindDiffReq:  CatFault,
		stats.KindDiff:     CatFault,
		stats.KindPageReq:  CatFault,
		stats.KindPage:     CatFault,
		stats.KindBarrier:  CatBarrier,
		stats.KindControl:  CatBarrier,
		stats.KindLock:     CatLock,
		stats.KindData:     CatData,
		stats.KindShutdown: CatOther,
	}
	for k, cat := range want {
		if got := CategoryOf(k); got != cat {
			t.Errorf("CategoryOf(%v) = %v, want %v", k, got, cat)
		}
	}
}

// TestWriteChromeDeterministic pins the exporter's byte determinism (a
// pure function of the event stream) and its round trip through the
// validator.
func TestWriteChromeDeterministic(t *testing.T) {
	build := func() *Trace {
		tr := New()
		tr.SetTopology(4, 2)
		tr.Span(EvWait, 0, 1234567, 890, stats.KindDiff, -1, 123)
		tr.Span(EvQueue, 1, 2000, 500, stats.KindPage, -1, int64(stats.QueueBackplane))
		tr.Span(EvFault, 0, 1000, 2000, stats.KindPage, 17, 3)
		tr.Instant(EvDiffReq, 0, 1100, stats.KindDiffReq, 17, 2)
		tr.Instant(EvDiffReply, 0, 1900, stats.KindDiff, -1, 2)
		tr.Instant(EvPageReq, 1, 50, stats.KindPageReq, 8, 0)
		tr.Instant(EvPageFetch, 1, 99, stats.KindPage, 8, 0)
		tr.Instant(EvBarrierArrive, 2, 5000, stats.KindBarrier, -1, 4)
		tr.Instant(EvBarrierDepart, 2, 5600, stats.KindBarrier, -1, 4)
		tr.Instant(EvLockRequest, 3, 7000, stats.KindLock, -1, 9)
		tr.Instant(EvLockGrant, 3, 7500, stats.KindLock, -1, 9)
		tr.Instant(EvMigrationEpoch, 0, 8000, stats.KindControl, -1, 5)
		tr.Instant(EvHomeMove, 1, 8001, stats.KindControl, 42, 0)
		tr.Span(EvCollective, 2, 9000, 300, stats.KindData, -1, CollHalo)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical event streams produced different Chrome JSON")
	}
	n, err := ValidateChrome(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("exporter output fails its own validator: %v", err)
	}
	if n != build().Len() {
		t.Errorf("validator counted %d events, trace has %d", n, build().Len())
	}
	// The timestamp formatting is fixed-point microseconds.
	if !strings.Contains(a.String(), `"ts":1234.567`) {
		t.Error("ns->us fixed-point formatting drifted (want ts 1234.567)")
	}
}

// TestValidateChromeRejects pins the validator's error cases.
func TestValidateChromeRejects(t *testing.T) {
	bad := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{"foo":[]}`,
		"nameless event": `{"traceEvents":[{"ph":"i","pid":0,"tid":0,"ts":1}]}`,
		"missing ts":     `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0,"ts":-1}]}`,
		"durless span":   `{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1}]}`,
		"unknown phase":  `{"traceEvents":[{"name":"x","ph":"B","pid":0,"tid":0,"ts":1}]}`,
	}
	for name, doc := range bad {
		if _, err := ValidateChrome(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestTypeAndCollNames pins the display vocabulary.
func TestTypeAndCollNames(t *testing.T) {
	for i := 0; i < NumTypes(); i++ {
		if s := Type(i).String(); strings.HasPrefix(s, "type(") {
			t.Errorf("Type(%d) has no name", i)
		}
	}
	if s := Type(200).String(); s != "type(200)" {
		t.Errorf("unknown type renders %q", s)
	}
	if CollName(CollHalo) != "halo" || CollName(99) != "coll(99)" {
		t.Error("collective naming drifted")
	}
}

// TestChunkedStorage: events live in fixed-size chunks. A trace of three
// full chunks and one event more keeps its length, its emission order
// (the Chrome document lists events in it), its attribution sums and the
// exact Chrome bytes an event-by-event rendering gives.
func TestChunkedStorage(t *testing.T) {
	const n = 3*chunkEvents + 1
	tr := New()
	tr.SetTopology(2, 2)
	var want bytes.Buffer
	want.WriteString("{\"traceEvents\":[\n")
	want.WriteString(`{"ph":"M","pid":0,"name":"process_name","args":{"name":"node 0"}}` + ",\n")
	want.WriteString(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"node 1"}}` + ",\n")
	want.WriteString(`{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"app 0"}}` + ",\n")
	want.WriteString(`{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"app 1"}}`)
	var barrier, data, queue [2]int64
	for i := 0; i < n; i++ {
		proc, at := i%2, int64(100*i)
		switch i % 3 {
		case 0:
			tr.Span(EvWait, proc, at, 40, stats.KindBarrier, -1, 0)
			barrier[proc] += 40
			fmt.Fprintf(&want, ",\n"+`{"pid":%d,"tid":%d,"ts":%s,"ph":"X","dur":0.040,"name":"wait:barrier","cat":"wait","args":{"kind":"barrier","queued_ns":0}}`, proc, proc, usec(at))
		case 1:
			tr.Span(EvWait, proc, at, 30, stats.KindData, -1, 10)
			data[proc] += 20
			queue[proc] += 10
			fmt.Fprintf(&want, ",\n"+`{"pid":%d,"tid":%d,"ts":%s,"ph":"X","dur":0.030,"name":"wait:data","cat":"wait","args":{"kind":"data","queued_ns":10}}`, proc, proc, usec(at))
		default:
			tr.Instant(EvPageFetch, proc, at, stats.KindPage, int32(i), 0)
			fmt.Fprintf(&want, ",\n"+`{"pid":%d,"tid":%d,"ts":%s,"ph":"i","s":"t","name":"page-fetch","cat":"protocol","args":{"page":%d}}`, proc, proc, usec(at), i)
		}
	}
	want.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")

	if tr.Len() != n || len(tr.chunks) != 4 || len(tr.chunks[3]) != 1 {
		t.Fatalf("Len = %d in %d chunks, want %d in 4", tr.Len(), len(tr.chunks), n)
	}
	end := int64(100 * n)
	for proc, b := range tr.Attribute([][2]int64{{0, end}, {0, end}}) {
		if b.Barrier != barrier[proc] || b.Data != data[proc] || b.Queue != queue[proc] || b.Compute != end-b.WaitSum() {
			t.Errorf("node %d: %+v, want barrier %d data %d queue %d", proc, b, barrier[proc], data[proc], queue[proc])
		}
	}
	var got bytes.Buffer
	if err := tr.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Chrome document differs from the event-by-event rendering (%d bytes, want %d)", got.Len(), want.Len())
	}
}
