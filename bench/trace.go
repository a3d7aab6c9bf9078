package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Parents a span can name without knowing an id: the live rep span and
// the live StreamWith span (app runs and encodes happen on the engine's
// goroutines, which cannot be handed an id).
const (
	noParent    = -1
	underRep    = -2
	underStream = -3
)

// span is one traced interval. Every span of one traced rep shares the
// tracer's run id.
type span struct {
	ID, Parent int
	Name       string
	Arg        string // application name on app.Run spans
	Start, End time.Duration
}

// tracer records spans in memory from the benchmark's own call sites
// around the layers' public functions; nothing inside the stack is
// instrumented. A nil *tracer records nothing, so untraced reps run the
// same code without it.
type tracer struct {
	mu        sync.Mutex
	t0        time.Time
	run       string
	spans     []span
	rep       int
	stream    int
	diffBytes int64
}

func newTracer(run string) *tracer {
	return &tracer{t0: time.Now(), run: run, rep: noParent, stream: noParent}
}

func (t *tracer) begin(parent int, name, arg string) int {
	if t == nil {
		return noParent
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch parent {
	case underRep:
		parent = t.rep
	case underStream:
		parent = t.stream
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Arg: arg, Start: now})
	switch name {
	case "rep":
		t.rep = id
	case "exp.StreamWith":
		t.stream = id
	}
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// lookup is an exp.Engine.Lookup that wraps every application so each
// run is a span and its diff traffic is counted.
func (t *tracer) lookup(name string) (core.App, error) {
	a, err := exp.AppByName(name)
	if err != nil {
		return nil, err
	}
	return tracedApp{a, t}, nil
}

type tracedApp struct {
	core.App
	tr *tracer
}

func (a tracedApp) Run(v core.Version, cfg core.Config) (core.Result, error) {
	id := a.tr.begin(underStream, "app.Run", a.Name())
	res, err := a.App.Run(v, cfg)
	a.tr.end(id)
	a.tr.mu.Lock()
	a.tr.diffBytes += res.Stats.BytesOf(stats.KindDiff)
	a.tr.mu.Unlock()
	return res, err
}

// encodeSpans is the writer StreamWith encodes into. The engine calls
// decorate just before it encodes a record and Write once the line is
// built, so the pair brackets encode plus write.
type encodeSpans struct {
	w   io.Writer
	tr  *tracer
	cur int
}

func (e *encodeSpans) decorate(*exp.Record) { e.cur = e.tr.begin(underStream, "exp.encode", "") }

func (e *encodeSpans) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	e.tr.end(e.cur)
	return n, err
}

// handler wraps a fabric worker's HTTP handler so each request is a span.
func (t *tracer) handler(parent int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(parent, "fabric.worker "+r.URL.Path, "")
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// total sums the durations of the spans with the given name; count is
// how many there were.
func (t *tracer) total(name string) (sum time.Duration, count int) {
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			count++
		}
	}
	return sum, count
}

// covered is the length of the union of the spans with the given name:
// the time during which at least one of them was open.
func (t *tracer) covered(name string) time.Duration {
	var in []span
	for _, s := range t.spans {
		if s.Name == name {
			in = append(in, s)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Start < in[j].Start })
	var sum, end time.Duration
	for _, s := range in {
		if s.Start > end {
			end = s.Start
		}
		if s.End > end {
			sum += s.End - end
			end = s.End
		}
	}
	return sum
}

// writeChrome writes the spans as a Chrome trace_event document and
// checks it with the repository's own validator. A span goes on the
// first lane (tid) that is free when it starts, so spans that overlap,
// a parent and its children among them, sit on separate lanes.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	order := append([]span(nil), t.spans...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start < order[j].Start })
	var laneEnd []time.Duration // when each lane's last span ends
	events := make([]event, 0, len(order))
	for _, s := range order {
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > s.Start {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.End
		name := s.Name
		if s.Arg != "" {
			name += " " + s.Arg
		}
		events = append(events, event{
			Name: name, Ph: "X", Pid: 1, Tid: lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": t.run},
		})
	}
	doc, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if n, err := obs.ValidateChrome(bytes.NewReader(doc)); err != nil {
		return err
	} else if n != len(t.spans) {
		return fmt.Errorf("trace: validator saw %d events for %d spans", n, len(t.spans))
	}
	return os.WriteFile(path, doc, 0o644)
}
