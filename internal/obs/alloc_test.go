package obs_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
)

// TestObservedRunBytesPerEvent bounds what a trace allocates for an
// event of a real run: the events of an observed small-scale MGS tmk
// run on 4 processors, emitted again into a fresh trace, allocate at
// most 16 bytes an event, chunks, their slack and the chunk list
// included. A 40-byte event struct cannot pass.
func TestObservedRunBytesPerEvent(t *testing.T) {
	e := exp.New()
	e.Observe = true
	res, err := e.Run(exp.Spec{App: "MGS", Version: core.Tmk, Procs: 4, Scale: core.SmallScale}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	events := obs.Events(res.Trace)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := obs.New()
	for _, e := range events {
		tr.Span(e.Type, int(e.Proc), e.T, e.Dur, e.Kind, e.Page, e.Arg)
	}
	runtime.ReadMemStats(&after)
	if tr.Len() != len(events) || len(events) < 1000 {
		t.Fatalf("%d events emitted again, %d held", len(events), tr.Len())
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(events))
	t.Logf("%d events, %.2f B an event", len(events), per)
	if per > 16 {
		t.Errorf("a trace allocates %.2f B an event, want at most 16", per)
	}
}
