package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// WriteChrome renders the trace as Chrome trace_event JSON (the JSON
// Object Format with a traceEvents array), which opens directly in
// Perfetto or chrome://tracing. Processes in the timeline are physical
// nodes; threads are simulated processes ("app N" / "server N").
// Timestamps are microseconds with fixed three-decimal formatting, so
// the output bytes are a pure function of the event stream — the
// golden trace test pins byte identity across repeats and engine
// worker counts.
func (t *Trace) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	if t != nil {
		for n := 0; n < t.nodes; n++ {
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"node %d"}}`, n, n))
		}
		for p := 0; p < t.procs; p++ {
			role := "app"
			if t.IsServer(p) {
				role = "server"
			}
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"%s %d"}}`,
				t.NodeOf(p), p, role, t.NodeOf(p)))
		}
		for _, c := range t.chunks {
			for i := 0; i < len(c); i += int(c[i]) {
				emit(t.chromeLine(decode(c, i)))
			}
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// usec formats virtual nanoseconds as fixed-point microseconds.
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// chromeLine renders one event as a trace_event JSON object.
func (t *Trace) chromeLine(e event) string {
	name, cat, args := chromeFields(e)
	head := fmt.Sprintf(`{"pid":%d,"tid":%d,"ts":%s`, t.NodeOf(int(e.Proc)), e.Proc, usec(e.T))
	var body string
	switch e.Type {
	case EvWait, EvQueue, EvFault, EvCollective:
		body = fmt.Sprintf(`,"ph":"X","dur":%s`, usec(e.Dur))
	default:
		body = `,"ph":"i","s":"t"`
	}
	return fmt.Sprintf(`%s%s,"name":"%s","cat":"%s","args":{%s}}`, head, body, name, cat, args)
}

// chromeFields maps an event to its display name, category and args.
func chromeFields(e event) (name, cat, args string) {
	switch e.Type {
	case EvWait:
		return "wait:" + e.Kind.String(), "wait",
			fmt.Sprintf(`"kind":"%s","queued_ns":%d`, e.Kind, e.Arg)
	case EvQueue:
		return "queue:" + stats.QueueResource(e.Arg).String(), "queue",
			fmt.Sprintf(`"kind":"%s"`, e.Kind)
	case EvFault:
		return "fault", "protocol",
			fmt.Sprintf(`"page":%d,"peers":%d`, e.Page, e.Arg)
	case EvDiffReq:
		return "diff-req", "protocol",
			fmt.Sprintf(`"page":%d,"writer":%d`, e.Page, e.Arg)
	case EvDiffReply:
		return "diff-reply", "protocol", fmt.Sprintf(`"writer":%d`, e.Arg)
	case EvPageReq:
		return "page-req", "protocol",
			fmt.Sprintf(`"page":%d,"home":%d`, e.Page, e.Arg)
	case EvPageFetch:
		return "page-fetch", "protocol", fmt.Sprintf(`"page":%d`, e.Page)
	case EvBarrierArrive, EvBarrierDepart:
		return e.Type.String(), "sync",
			fmt.Sprintf(`"kind":"%s","seq":%d`, e.Kind, e.Arg)
	case EvLockRequest, EvLockGrant:
		return e.Type.String(), "sync", fmt.Sprintf(`"lock":%d`, e.Arg)
	case EvMigrationEpoch:
		return "dir-epoch", "home", fmt.Sprintf(`"updates":%d`, e.Arg)
	case EvHomeMove:
		return "home-move", "home",
			fmt.Sprintf(`"page":%d,"from":%d`, e.Page, e.Arg)
	case EvCollective:
		return "coll:" + collName(e.Arg), "collective",
			fmt.Sprintf(`"kind":"%s"`, e.Kind)
	}
	return e.Type.String(), "event", fmt.Sprintf(`"arg":%d`, e.Arg)
}

// chromeEvent is the subset of trace_event fields ValidateChrome
// checks.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
}

// ValidateChrome parses a Chrome trace_event JSON document and checks
// its structure: a traceEvents array whose entries carry a name and
// phase, with pid/tid/ts on every non-metadata event and a
// non-negative dur on complete events. It returns the number of
// non-metadata events. cmd/sweeplint's -trace mode and the trace tests
// share this check.
func ValidateChrome(r io.Reader) (int, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("obs: malformed trace JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("obs: trace has no traceEvents array")
	}
	events := 0
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" {
			return 0, fmt.Errorf("obs: traceEvents[%d] lacks name or ph", i)
		}
		if e.Ph == "M" {
			continue
		}
		events++
		if e.Pid == nil || e.Tid == nil || e.Ts == nil {
			return 0, fmt.Errorf("obs: traceEvents[%d] (%s) lacks pid/tid/ts", i, e.Name)
		}
		if *e.Ts < 0 {
			return 0, fmt.Errorf("obs: traceEvents[%d] (%s) has negative ts", i, e.Name)
		}
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return 0, fmt.Errorf("obs: traceEvents[%d] (%s) lacks a non-negative dur", i, e.Name)
			}
		case "i":
		default:
			return 0, fmt.Errorf("obs: traceEvents[%d] (%s) has unexpected phase %q", i, e.Name, e.Ph)
		}
	}
	return events, nil
}
