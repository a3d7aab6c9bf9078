// Package obs is the observability layer of the simulator: typed trace
// events with virtual timestamps, collected during a run and folded
// into per-node time attributions or exported as a Chrome trace_event
// JSON timeline (Perfetto-compatible).
//
// The layer is zero-overhead when disabled: a nil *Trace is the
// disabled state, every emit method nil-checks its receiver, and — the
// load-bearing guarantee — event emission never advances virtual time
// or sends messages, so a run's virtual times, message counts and byte
// volumes are bit-identical whether tracing is on or off. The golden
// virtual-time and traffic tests pin the disabled path; the exp-level
// observability tests pin the enabled path against it.
//
// obs sits below everything that emits: it imports only internal/stats
// (for the traffic-category vocabulary) and carries timestamps as raw
// int64 nanoseconds, so sim, model, proto, tmk, pvm, xhpf, core and exp
// can all import it without cycles.
package obs

import (
	"fmt"

	"repro/internal/stats"
)

// Type classifies a trace event.
type Type uint8

const (
	// EvWait is a span: a process sat idle in Recv until its message's
	// delivery time (the clock jump). Kind is the received message's
	// traffic category; Arg is the part of the wait caused by contention
	// queueing (the message's Queued time, clamped to the wait).
	EvWait Type = iota
	// EvQueue is a span: a message waited for a busy link before
	// transmission (contention model only). Emitted on the *sending*
	// process; Arg is the binding stats.QueueResource.
	EvQueue
	// EvFault is a span: a page-fault repair on the application process,
	// from access miss to all diffs/pages applied. Page is the first
	// faulted page; Arg is the number of remote peers consulted.
	EvFault
	// EvDiffReq is an instant: a diff request left for a writer (Arg).
	EvDiffReq
	// EvDiffReply is an instant: a writer's (Arg) diff response was
	// received.
	EvDiffReply
	// EvPageReq is an instant: a whole-page request left for a home
	// node (Arg).
	EvPageReq
	// EvPageFetch is an instant: a full page copy (Page) was installed.
	EvPageFetch
	// EvBarrierArrive is an instant: the process arrived at barrier
	// sequence Arg (manager: entered the gather).
	EvBarrierArrive
	// EvBarrierDepart is an instant: the process left barrier sequence
	// Arg with consistency information applied.
	EvBarrierDepart
	// EvLockRequest is an instant: an acquire of lock Arg started.
	EvLockRequest
	// EvLockGrant is an instant: lock Arg was acquired.
	EvLockGrant
	// EvMigrationEpoch is an instant (manager node only): a home-
	// directory epoch closed with Arg arbitrated updates.
	EvMigrationEpoch
	// EvHomeMove is an instant: page Page's home moved to this node from
	// node Arg.
	EvHomeMove
	// EvCollective is a span: a message-passing runtime collective
	// (barrier, broadcast, halo exchange, ...). Arg is a Coll* code.
	EvCollective
	numTypes
)

var typeNames = [numTypes]string{
	"wait", "queue", "fault", "diff-req", "diff-reply", "page-req",
	"page-fetch", "barrier-arrive", "barrier-depart", "lock-request",
	"lock-grant", "dir-epoch", "home-move", "collective",
}

// String returns the lower-case event-type name.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// NumTypes reports the number of defined event types.
func NumTypes() int { return int(numTypes) }

// Collective operation codes (EvCollective's Arg).
const (
	CollBarrier int64 = iota
	CollLoopSync
	CollBcast
	CollHalo
	CollPartition
	CollGather
	CollAllToAll
	CollReduce
)

var collNames = []string{
	"barrier", "loopsync", "bcast", "halo", "partition", "gather",
	"alltoall", "reduce",
}

// CollName returns the collective-operation name for an EvCollective
// Arg code.
func CollName(op int64) string {
	if op >= 0 && int(op) < len(collNames) {
		return collNames[op]
	}
	return fmt.Sprintf("coll(%d)", op)
}

// Event is one trace event. T and Dur are virtual nanoseconds; Dur is
// zero for instants. Page is -1 when the event concerns no page. The
// meaning of Arg depends on Type (see the Type constants).
type Event struct {
	T    int64
	Dur  int64
	Arg  int64
	Proc int32
	Page int32
	Type Type
	Kind stats.Kind
}

// Trace collects the events of one run. The zero value is usable; a
// nil *Trace is the disabled state: every method nil-checks, so
// call sites need no guards (though hot paths may use Enabled to skip
// argument construction). A Trace is single-run, single-goroutine
// state — the simulator's sequential scheduler serializes all access
// during a run, and each engine run gets its own instance.
type Trace struct {
	procs int
	nodes int
	// chunks holds the events in emission order, every chunk but the
	// last full: a trace allocates the events it holds to within one
	// chunk and never copies them, where one growing slice allocates
	// about three times what it ends up holding.
	chunks [][]Event
}

// chunkEvents is the capacity of one storage chunk (40 bytes an event).
const chunkEvents = 256

// New creates an enabled, empty trace.
func New() *Trace { return &Trace{} }

// Enabled reports whether events are being collected.
func (t *Trace) Enabled() bool { return t != nil }

// SetTopology records the simulated machine shape: procs simulated
// processes on nodes physical nodes (process p on node p mod nodes,
// matching the simulator's contention-model convention). Runtimes that
// pair an application process with a request server per node pass
// procs = 2*nodes; the upper half are then the server processes.
func (t *Trace) SetTopology(procs, nodes int) {
	if t == nil {
		return
	}
	t.procs, t.nodes = procs, nodes
}

// Procs returns the simulated process count (0 until SetTopology).
func (t *Trace) Procs() int {
	if t == nil {
		return 0
	}
	return t.procs
}

// Nodes returns the physical node count (0 until SetTopology).
func (t *Trace) Nodes() int {
	if t == nil {
		return 0
	}
	return t.nodes
}

// NodeOf maps a process id to its physical node.
func (t *Trace) NodeOf(proc int) int {
	if t == nil || t.nodes == 0 {
		return proc
	}
	return proc % t.nodes
}

// IsServer reports whether a process id is a request-server process
// (the upper half of a paired app+server topology).
func (t *Trace) IsServer(proc int) bool {
	return t != nil && t.procs == 2*t.nodes && proc >= t.nodes
}

// Span appends a duration event. Emission never advances virtual time.
func (t *Trace) Span(typ Type, proc int, start, dur int64, kind stats.Kind, page int32, arg int64) {
	if t == nil {
		return
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == chunkEvents {
		t.chunks = append(t.chunks, make([]Event, 0, chunkEvents))
		last++
	}
	t.chunks[last] = append(t.chunks[last], Event{
		T: start, Dur: dur, Arg: arg,
		Proc: int32(proc), Page: page, Type: typ, Kind: kind,
	})
}

// Instant appends a zero-duration event.
func (t *Trace) Instant(typ Type, proc int, at int64, kind stats.Kind, page int32, arg int64) {
	t.Span(typ, proc, at, 0, kind, page, arg)
}

// Len returns the number of collected events.
func (t *Trace) Len() int {
	if t == nil || len(t.chunks) == 0 {
		return 0
	}
	last := len(t.chunks) - 1
	return last*chunkEvents + len(t.chunks[last])
}
