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
	"encoding/binary"
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

// collName returns the collective-operation name for an EvCollective
// Arg code.
func collName(op int64) string {
	if op >= 0 && int(op) < len(collNames) {
		return collNames[op]
	}
	return fmt.Sprintf("coll(%d)", op)
}

// event is one trace event, as Attribute and WriteChrome decode it
// from its record (see Trace). T and Dur are virtual nanoseconds; Dur
// is zero for instants. Page is -1 when the event concerns no page. The
// meaning of Arg depends on Type (see the Type constants).
type event struct {
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
//
// An event is stored as a self-delimiting record of about 12 bytes,
// where the Event struct takes 40: a length byte (the record's, itself
// included), the type and kind bytes, then the proc's 32 bits as an
// unsigned varint and T, Dur, Page and Arg as zigzag varints, in
// encoding/binary's varint format. T is absolute, not a delta from an
// earlier event, so a reader that wants only some types (Attribute
// wants waits) steps over the other records by their length without
// decoding them.
type Trace struct {
	procs int
	nodes int
	n     int // events held
	// chunks holds the records in emission order. A chunk is made with
	// capacity chunkBytes and written only within it, so it is never
	// grown or copied. A chunk with less than maxRecord bytes free is
	// closed: no record straddles two chunks, and a trace allocates what
	// it holds to within one chunk (and less than maxRecord bytes a
	// chunk).
	chunks [][]byte
}

const (
	// chunkBytes is the capacity of one storage chunk. Most observed
	// runs hold a few thousand events, so the last chunk's free tail is
	// what a trace wastes: 2 KB chunks waste less of a small run than
	// 8 KB ones and make fewer allocations than 1 KB ones.
	chunkBytes = 2048
	// maxRecord is the longest record: length, type and kind bytes, a
	// 32-bit proc and page, and three 64-bit fields.
	maxRecord = 3 + 2*binary.MaxVarintLen32 + 3*binary.MaxVarintLen64
)

// decode returns the event of the record at r[i:].
func decode(r []byte, i int) event {
	typ, kind := Type(r[i+1]), stats.Kind(r[i+2])
	proc, i := uvarint(r, i+3)
	t, i := uvarint(r, i)
	dur, i := uvarint(r, i)
	page, i := uvarint(r, i)
	arg, _ := uvarint(r, i)
	return event{T: unzigzag(t), Dur: unzigzag(dur), Arg: unzigzag(arg),
		Proc: int32(proc), Page: int32(unzigzag(page)), Type: typ, Kind: kind}
}

// uvarint reads the varint at r[i:] and returns the index after it.
func uvarint(r []byte, i int) (uint64, int) {
	b := r[i]
	if b < 0x80 {
		return uint64(b), i + 1
	}
	x := uint64(b & 0x7f)
	for s := 7; ; s += 7 {
		i++
		b = r[i]
		x |= uint64(b&0x7f) << s
		if b < 0x80 {
			return x, i + 1
		}
	}
}

// put writes x as a varint at r[i:] and returns the index after it.
// The record is an array, so the writes are checked against maxRecord
// and not against the chunk.
func put(r *[maxRecord]byte, i int, x uint64) int {
	for x >= 0x80 {
		r[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	r[i] = byte(x)
	return i + 1
}

// zigzag is binary.PutVarint's zigzag encoding.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag is binary.Varint's zigzag decoding.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < maxRecord {
		t.chunks = append(t.chunks, make([]byte, 0, chunkBytes))
		last++
	}
	c := t.chunks[last]
	r := (*[maxRecord]byte)(c[len(c) : len(c)+maxRecord])
	r[1], r[2] = byte(typ), byte(kind)
	n := put(r, 3, uint64(uint32(proc)))
	n = put(r, n, zigzag(start))
	n = put(r, n, zigzag(dur))
	n = put(r, n, zigzag(int64(page)))
	n = put(r, n, zigzag(arg))
	r[0] = byte(n)
	t.chunks[last] = c[:len(c)+n]
	t.n++
}

// Instant appends a zero-duration event.
func (t *Trace) Instant(typ Type, proc int, at int64, kind stats.Kind, page int32, arg int64) {
	t.Span(typ, proc, at, 0, kind, page, arg)
}

// Len returns the number of collected events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}
