package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
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
	if tr.nodeOf(3) != 3 {
		t.Errorf("nil trace nodeOf(3) = %d, want identity", tr.nodeOf(3))
	}
	if tr.isServer(7) {
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
		if got := tr.nodeOf(p); got != p%4 {
			t.Errorf("nodeOf(%d) = %d, want %d", p, got, p%4)
		}
		if got := tr.isServer(p); got != (p >= 4) {
			t.Errorf("isServer(%d) = %v, want %v", p, got, p >= 4)
		}
	}
	tr.SetTopology(4, 4) // no paired servers
	if tr.isServer(3) {
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
	want := map[stats.Kind]category{
		stats.KindDiffReq:  catFault,
		stats.KindDiff:     catFault,
		stats.KindPageReq:  catFault,
		stats.KindPage:     catFault,
		stats.KindBarrier:  catBarrier,
		stats.KindControl:  catBarrier,
		stats.KindLock:     catLock,
		stats.KindData:     catData,
		stats.KindShutdown: catOther,
	}
	for k, cat := range want {
		if got := categoryOf(k); got != cat {
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
	for i := 0; i < int(numTypes); i++ {
		if s := Type(i).String(); strings.HasPrefix(s, "type(") {
			t.Errorf("Type(%d) has no name", i)
		}
	}
	if s := Type(200).String(); s != "type(200)" {
		t.Errorf("unknown type renders %q", s)
	}
	if collName(CollHalo) != "halo" || collName(99) != "coll(99)" {
		t.Error("collective naming drifted")
	}
}

// TestChunkedStorage: events live as records in fixed-size chunks. A
// trace over four chunks keeps its length, its emission order (the
// Chrome document lists events in it), its attribution sums and the
// exact Chrome bytes an event-by-event rendering gives; no record
// straddles two chunks, and no chunk is ever reallocated.
func TestChunkedStorage(t *testing.T) {
	tr := New()
	tr.SetTopology(2, 2)
	var want bytes.Buffer
	want.WriteString("{\"traceEvents\":[\n")
	want.WriteString(`{"ph":"M","pid":0,"name":"process_name","args":{"name":"node 0"}}` + ",\n")
	want.WriteString(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"node 1"}}` + ",\n")
	want.WriteString(`{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"app 0"}}` + ",\n")
	want.WriteString(`{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"app 1"}}`)
	var barrier, data, queue [2]int64
	var emitted []event
	var bases []*byte // each chunk's backing array, as first made
	n := 0
	for ; len(tr.chunks) < 4; n++ {
		proc, at := n%2, int64(100*n)
		switch n % 3 {
		case 0:
			tr.Span(EvWait, proc, at, 40, stats.KindBarrier, -1, 0)
			emitted = append(emitted, event{T: at, Dur: 40, Proc: int32(proc), Page: -1, Type: EvWait, Kind: stats.KindBarrier})
			barrier[proc] += 40
			fmt.Fprintf(&want, ",\n"+`{"pid":%d,"tid":%d,"ts":%s,"ph":"X","dur":0.040,"name":"wait:barrier","cat":"wait","args":{"kind":"barrier","queued_ns":0}}`, proc, proc, usec(at))
		case 1:
			tr.Span(EvWait, proc, at, 30, stats.KindData, -1, 10)
			emitted = append(emitted, event{T: at, Dur: 30, Arg: 10, Proc: int32(proc), Page: -1, Type: EvWait, Kind: stats.KindData})
			data[proc] += 20
			queue[proc] += 10
			fmt.Fprintf(&want, ",\n"+`{"pid":%d,"tid":%d,"ts":%s,"ph":"X","dur":0.030,"name":"wait:data","cat":"wait","args":{"kind":"data","queued_ns":10}}`, proc, proc, usec(at))
		default:
			tr.Instant(EvPageFetch, proc, at, stats.KindPage, int32(n), 0)
			emitted = append(emitted, event{T: at, Proc: int32(proc), Page: int32(n), Type: EvPageFetch, Kind: stats.KindPage})
			fmt.Fprintf(&want, ",\n"+`{"pid":%d,"tid":%d,"ts":%s,"ph":"i","s":"t","name":"page-fetch","cat":"protocol","args":{"page":%d}}`, proc, proc, usec(at), n)
		}
		for k, c := range tr.chunks {
			base := &c[:1][0]
			if k == len(bases) {
				bases = append(bases, base)
			}
			if base != bases[k] || cap(c) != chunkBytes {
				t.Fatalf("event %d: chunk %d reallocated (cap %d, want %d)", n, k, cap(c), chunkBytes)
			}
		}
	}
	want.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")

	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for k, c := range tr.chunks {
		for off := 0; off < len(c); off += int(c[off]) {
			if c[off] < 3 || off+int(c[off]) > len(c) {
				t.Fatalf("chunk %d: record at %d (%d bytes) straddles the chunk's end (%d)", k, off, c[off], len(c))
			}
		}
		if k < len(tr.chunks)-1 && chunkBytes-len(c) >= maxRecord {
			t.Errorf("chunk %d was left with %d bytes free, room for any record", k, chunkBytes-len(c))
		}
	}
	if !slices.Equal(Events(tr), emitted) {
		t.Error("decoded events differ from the emitted ones, or are out of emission order")
	}
	end := int64(100 * n)
	for proc, b := range tr.Attribute([][2]int64{{0, end}, {0, end}}) {
		if b.Barrier != barrier[proc] || b.Data != data[proc] || b.Queue != queue[proc] || b.Compute != end-b.WaitSum() {
			t.Errorf("node %d: %+v, want barrier %d data %d queue %d", proc, b, barrier[proc], data[proc], queue[proc])
		}
	}
	var doc bytes.Buffer
	if err := tr.WriteChrome(&doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Bytes(), want.Bytes()) {
		t.Errorf("Chrome document differs from the event-by-event rendering (%d bytes, want %d)", doc.Len(), want.Len())
	}
}

// emit appends events to tr in order.
func emit(tr *Trace, events []event) {
	for _, e := range events {
		tr.Span(e.Type, int(e.Proc), e.T, e.Dur, e.Kind, e.Page, e.Arg)
	}
}

// chromeOf is the Chrome document of events rendered one by one, under
// tr's topology: WriteChrome's frame, with one chromeLine an event.
func chromeOf(tr *Trace, events []event) []byte {
	var frame bytes.Buffer
	(&Trace{procs: tr.procs, nodes: tr.nodes}).WriteChrome(&frame)
	tail := "\n],\"displayTimeUnit\":\"ms\"}\n"
	doc := bytes.Clone(frame.Bytes()[:frame.Len()-len(tail)])
	sep := tr.nodes+tr.procs > 0
	for _, e := range events {
		if sep {
			doc = append(doc, ",\n"...)
		}
		sep = true
		doc = append(doc, tr.chromeLine(e)...)
	}
	return append(doc, tail...)
}

// attributed folds events through Attribute's own fold, or returns the
// panic that stopped it.
func attributed(windows [][2]int64, events []event) (bds []NodeBreakdown, panicked any) {
	defer func() { panicked = recover() }()
	a := newAttribution(windows)
	for _, e := range events {
		if e.Type == EvWait {
			a.wait(e)
		}
	}
	return a.result(), nil
}

// attributeOf is tr.Attribute(windows), or the panic that stopped it.
func attributeOf(tr *Trace, windows [][2]int64) (bds []NodeBreakdown, panicked any) {
	defer func() { panicked = recover() }()
	return tr.Attribute(windows), nil
}

// checkRoundTrip holds a trace built from events to the events
// themselves: its records are the documented layout, it decodes to the
// events in order, and its Chrome bytes and breakdowns (or the panic
// Attribute raises) are those of the events taken one by one.
func checkRoundTrip(t *testing.T, events []event, windows [][2]int64) (panicked any) {
	t.Helper()
	tr := New()
	tr.SetTopology(4, 2)
	emit(tr, events)
	if tr.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(events))
	}
	if got := Events(tr); !slices.Equal(got, events) {
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("event %d decodes to %+v, want %+v", i, got[i], events[i])
			}
		}
		t.Fatalf("%d events decoded, want %d", len(got), len(events))
	}
	var stored, layout []byte
	for _, c := range tr.chunks {
		stored = append(stored, c...)
	}
	for _, e := range events {
		r := []byte{0, byte(e.Type), byte(e.Kind)}
		r = binary.AppendUvarint(r, uint64(uint32(e.Proc)))
		for _, v := range []int64{e.T, e.Dur, int64(e.Page), e.Arg} {
			r = binary.AppendVarint(r, v)
		}
		r[0] = byte(len(r))
		layout = append(layout, r...)
	}
	if !bytes.Equal(stored, layout) {
		t.Fatal("stored records differ from the documented layout built with encoding/binary")
	}
	var doc bytes.Buffer
	if err := tr.WriteChrome(&doc); err != nil {
		t.Fatal(err)
	}
	if want := chromeOf(tr, events); !bytes.Equal(doc.Bytes(), want) {
		t.Errorf("Chrome document differs from the event-by-event rendering (%d bytes, want %d)", doc.Len(), len(want))
	}
	got, gotPanic := attributeOf(tr, windows)
	want, wantPanic := attributed(windows, events)
	if fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) || !slices.Equal(got, want) {
		t.Errorf("Attribute = %+v (panic %v), want %+v (panic %v)", got, gotPanic, want, wantPanic)
	}
	return gotPanic
}

// TestRecordExtremes round-trips the extremes of every field, every
// type and kind and procs 0-300 through the records.
func TestRecordExtremes(t *testing.T) {
	wait := func(proc int32, at, dur int64, kind stats.Kind, arg int64) event {
		return event{T: at, Dur: dur, Arg: arg, Proc: proc, Page: -1, Type: EvWait, Kind: kind}
	}
	at := func(typ Type, proc int32, page int32, arg int64) event {
		return event{T: 1000, Arg: arg, Proc: proc, Page: page, Type: typ, Kind: stats.KindPage}
	}
	var typesKinds, procs []event
	nk := len(stats.AllKinds())
	for typ := Type(0); typ <= numTypes; typ++ {
		for k := 0; k <= nk; k++ {
			typesKinds = append(typesKinds, event{T: int64(len(typesKinds)) * 10, Dur: 5, Arg: 2,
				Proc: 1, Page: 7, Type: typ, Kind: stats.Kind(k)})
		}
	}
	for p := int32(0); p <= 300; p++ {
		procs = append(procs, wait(p, 100, int64(p), stats.KindLock, 0), at(EvLockGrant, p, -1, int64(p)))
	}
	windows := make([][2]int64, 301)
	for i := range windows {
		windows[i] = [2]int64{0, math.MaxInt64}
	}
	for _, c := range []struct {
		name   string
		events []event
		panics string
	}{
		{"T", []event{wait(0, 0, 10, stats.KindData, 0), at(EvPageFetch, 0, 3, 0),
			wait(0, math.MaxInt64, 0, stats.KindData, 0), {T: math.MaxInt64, Page: -1, Type: EvDiffReq, Kind: stats.KindDiffReq}}, ""},
		{"Dur", []event{wait(1, 0, 0, stats.KindBarrier, 0), wait(1, 10, 1<<33+1, stats.KindBarrier, 0),
			{T: 1 << 40, Dur: math.MaxInt64 - 1<<40, Proc: 1, Page: 3, Type: EvFault, Kind: stats.KindPage}}, ""},
		{"negative Dur", []event{wait(2, 50, 0, stats.KindDiff, 0), wait(2, 100, -5, stats.KindDiff, 0)}, "negative wait"},
		{"negative Dur, not a wait", []event{{T: 7, Dur: math.MinInt64, Proc: 2, Page: -1, Type: EvQueue, Kind: stats.KindData}}, ""},
		{"Page", []event{at(EvPageFetch, 3, -1, 0), at(EvPageFetch, 3, math.MinInt32, 0), at(EvHomeMove, 3, math.MaxInt32, 2)}, ""},
		{"Arg", []event{wait(0, 0, 10, stats.KindData, math.MinInt64), wait(0, 20, 10, stats.KindData, math.MaxInt64),
			at(EvCollective, 0, -1, math.MinInt64), at(EvMigrationEpoch, 0, -1, math.MaxInt64)}, ""},
		{"types and kinds", typesKinds, ""},
		{"procs 0-300", procs, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := checkRoundTrip(t, c.events, windows)
			if msg := fmt.Sprint(p); (p == nil) != (c.panics == "") || !strings.Contains(msg, c.panics) {
				t.Errorf("Attribute panicked with %v, want a panic mentioning %q", p, c.panics)
			}
		})
	}
}

// FuzzTraceRoundTrip: byte-driven event lists, each event repeated up
// to 256 times so that traces cross chunk boundaries, decode to
// themselves and give the Chrome bytes and breakdowns (or Attribute's
// panic) of the events taken one by one.
func FuzzTraceRoundTrip(f *testing.F) {
	seed := func(events ...event) []byte {
		var b []byte
		for _, e := range events {
			b = binary.LittleEndian.AppendUint64(b, uint64(e.T))
			b = binary.LittleEndian.AppendUint64(b, uint64(e.Dur))
			b = binary.LittleEndian.AppendUint64(b, uint64(e.Arg))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Page))
			b = binary.LittleEndian.AppendUint16(b, uint16(e.Proc))
			b = append(b, byte(e.Type), byte(e.Kind), 40)
		}
		return b
	}
	f.Add(seed(event{T: 100, Dur: 50, Page: -1, Type: EvWait, Kind: stats.KindDiff},
		event{T: 2000, Proc: 1, Page: 17, Arg: 2, Type: EvDiffReq, Kind: stats.KindDiffReq}))
	f.Add(seed(event{T: math.MaxInt64, Dur: -1, Arg: math.MinInt64, Page: math.MinInt32, Proc: -3, Type: EvWait}))
	const eventBytes = 8 + 8 + 8 + 4 + 2 + 3
	f.Fuzz(func(t *testing.T, data []byte) {
		var events []event
		for ; len(data) >= eventBytes && len(events) < 1<<14; data = data[eventBytes:] {
			e := event{
				T:    int64(binary.LittleEndian.Uint64(data)),
				Dur:  int64(binary.LittleEndian.Uint64(data[8:])),
				Arg:  int64(binary.LittleEndian.Uint64(data[16:])),
				Page: int32(binary.LittleEndian.Uint32(data[24:])),
				Proc: int32(int16(binary.LittleEndian.Uint16(data[28:]))),
				Type: Type(data[30]),
				Kind: stats.Kind(data[31]),
			}
			for rep := 0; rep <= int(data[32]); rep++ {
				events = append(events, e)
				e.T += e.Dur // a repeated wait follows its last one
			}
		}
		checkRoundTrip(t, events, [][2]int64{{0, 1 << 40}, {-1 << 20, 1 << 62}, {5, 5}})
	})
}

// benchEvents is a trace's worth of events shaped like a small DSM
// run's: eight processes, a wait or a protocol instant every few
// hundred virtual nanoseconds, pages and arguments of a few bits.
func benchEvents() []event {
	events := make([]event, 4096)
	var at int64
	nk := len(stats.AllKinds())
	for i := range events {
		at += int64(100 + i*37%900)
		e := event{T: at, Proc: int32(i % 8), Page: -1, Kind: stats.Kind(i % nk)}
		switch i % 5 {
		case 0, 1:
			e.Type, e.Dur, e.Arg = EvWait, int64(i*53%5000), int64(i%3)
		case 2:
			e.Type, e.Dur, e.Page, e.Arg = EvFault, int64(i*91%20000), int32(i%512), 2
		default:
			e.Type, e.Page, e.Arg = EvDiffReq, int32(i%512), int64(i%8)
		}
		events[i] = e
	}
	return events
}

// reportPerEvent reports ns and bytes allocated per event over b.N
// passes of events events each.
func reportPerEvent(b *testing.B, events int, before runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/event")
}

// Sinks keep the benchmarks' results alive.
var (
	sinkTrace      *Trace
	sinkBreakdowns []NodeBreakdown
)

func BenchmarkSpan(b *testing.B) {
	events := benchEvents()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTrace = New()
		emit(sinkTrace, events)
	}
	b.StopTimer()
	reportPerEvent(b, len(events), before)
}

func BenchmarkAttribute(b *testing.B) {
	events := benchEvents()
	tr := New()
	emit(tr, events)
	windows := make([][2]int64, 8)
	for i := range windows {
		windows[i] = [2]int64{0, math.MaxInt64}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBreakdowns = tr.Attribute(windows)
	}
	b.StopTimer()
	reportPerEvent(b, len(events), before)
}

func BenchmarkWriteChrome(b *testing.B) {
	events := benchEvents()
	tr := New()
	tr.SetTopology(16, 8)
	emit(tr, events)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(events), before)
}
