// Package proto is the pluggable coherence-protocol subsystem of the
// DSM. It defines the Protocol interface — page-fault repair, write
// detection, interval/write-notice propagation at synchronization
// points, and per-node statistics — plus two implementations:
//
//   - the paper's TreadMarks protocol (HomelessLRC): homeless lazy
//     release consistency with twins and run-length-encoded diffs, lazy
//     diff creation and accumulation, moved here from internal/tmk;
//   - a home-based LRC (HomeLRC): every page has a statically assigned
//     home node, writers eagerly flush diffs to the home at each release
//     (acknowledged before the release completes), and a faulting node
//     fetches the whole page from the home with a single round trip.
//
// Both protocols share the lazy-release-consistency core (vector
// timestamps, intervals, write notices — lrc.go); they differ in how
// modified data travels. Race-free programs produce bit-identical
// numerical results under either protocol; only virtual time, message
// counts and byte volumes differ, which is exactly what the protocol
// comparison experiments measure.
//
// The protocol runs below the synchronization layer: barriers, locks and
// the enhanced interface live in internal/tmk and call into a Protocol
// through the hooks defined here, passing consistency batches through
// their own messages. The protocol's own traffic (diff requests, home
// flushes, page fetches) travels on the tag ranges reserved in wire.go.
package proto

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Name identifies a coherence protocol.
type Name string

const (
	// HomelessLRC is TreadMarks' homeless lazy release consistency with
	// distributed diffs (the paper's protocol, and the default).
	HomelessLRC Name = "lrc"
	// HomeLRC is home-based lazy release consistency: eager diff flushes
	// to per-page homes at release, whole-page fetches at faults.
	HomeLRC Name = "hlrc"
)

// Names lists the available protocols.
func Names() []Name { return []Name{HomelessLRC, HomeLRC} }

// Parse resolves a protocol name; the empty string means the default
// (homeless) protocol. Aliases "homeless" and "home" are accepted.
func Parse(s string) (Name, error) {
	switch s {
	case "", string(HomelessLRC), "homeless", "treadmarks":
		return HomelessLRC, nil
	case string(HomeLRC), "home", "home-based":
		return HomeLRC, nil
	}
	return "", fmt.Errorf("proto: unknown protocol %q (have lrc, hlrc)", s)
}

// Host is the runtime surface a protocol instance operates through: the
// node's identity, its processes, the cost model, and the page-level
// data mechanism (twinning, diffing, whole-page copies) provided by the
// region layer. All methods are local — the protocol alone decides what
// travels on the wire.
type Host interface {
	// NodeID returns this node's id in [0, NProcs).
	NodeID() int
	// NProcs returns the number of DSM nodes.
	NProcs() int
	// AppProc returns the node's application process.
	AppProc() *sim.Proc
	// ServerOf maps a node id to its request-server process id.
	ServerOf(node int) int
	// Costs returns the machine cost model.
	Costs() model.Costs

	// IntervalLog returns the run's interval log, shared by every node:
	// entry q holds writer q's released intervals in ascending order.
	// Only q's protocol instance appends to entry q, and a logged record
	// is never modified.
	IntervalLog() [][]IntervalRec

	// MakeTwin snapshots page gp for write detection.
	MakeTwin(gp int32)
	// ExtractDiff encodes the diff of gp against its twin and refreshes
	// (keepTwin) or drops the twin. Returns the payload and its modeled
	// wire size. The payload is the caller's to keep.
	ExtractDiff(gp int32, keepTwin bool) (payload any, bytes int)
	// LendDiff is ExtractDiff dropping the twin, with the payload's
	// values in a buffer lent by the host: the caller hands it back with
	// ReturnDiff once nothing reads the payload any more.
	LendDiff(gp int32) (payload any, bytes int)
	// ReturnDiff takes back a LendDiff payload of gp for reuse.
	ReturnDiff(gp int32, payload any)
	// ApplyDiff writes a diff payload into page gp.
	ApplyDiff(gp int32, payload any)
	// MergeDiffs combines several diff payloads for gp into one, which
	// shares no storage with them.
	MergeDiffs(gp int32, payloads []any) (payload any, bytes int)
	// SnapshotPage returns the full contents of page gp with wire size.
	SnapshotPage(gp int32) (payload any, bytes int)
	// InstallPage overwrites page gp from a SnapshotPage payload and
	// consumes it: the host may reuse the buffer for a later snapshot.
	InstallPage(gp int32, payload any)
}

// Counters are the per-node protocol event counts.
type Counters struct {
	Faults       int64 // access faults taken
	Twins        int64 // twins created
	DiffsMade    int64 // diffs extracted (lazily or at flush)
	DiffsApplied int64 // diffs applied to local pages
	PageFetches  int64 // whole-page fetches (home-based protocol)

	// Home-policy activity (home-based protocol under a migrating
	// policy; always zero under static homes or the homeless protocol).
	Migrations           int64 // pages whose home moved *to* this node
	StaleForwards        int64 // protocol requests NACKed because the directory moved (server side)
	RedirectedFlushBytes int64 // flush bytes this node re-sent after a stale-home NACK
}

// Add accumulates o into c, field by field — the per-system aggregation
// lives here so a new counter cannot be dropped from run results.
func (c *Counters) Add(o *Counters) {
	c.Faults += o.Faults
	c.Twins += o.Twins
	c.DiffsMade += o.DiffsMade
	c.DiffsApplied += o.DiffsApplied
	c.PageFetches += o.PageFetches
	c.Migrations += o.Migrations
	c.StaleForwards += o.StaleForwards
	c.RedirectedFlushBytes += o.RedirectedFlushBytes
}

// PushDirective is a registered producer-push pairing (the §8 "push
// instead of pull" optimization): at every barrier the owner ships its
// new modifications for the page range [First, Last] to Dest. How — or
// whether — data actually travels is up to the protocol.
type PushDirective struct {
	Dest        int
	First, Last int32   // inclusive global page range
	SentSeq     []int32 // per page: highest record seq already pushed
}

// Protocol is one coherence protocol instance, bound to a node. The
// synchronization layer calls the application-side methods from the
// node's application process; HandleServer runs on the request server.
// A Protocol's state is shared between the two processes; the
// simulator's sequential scheduler serializes all access.
type Protocol interface {
	// Name returns the protocol's identifier.
	Name() Name

	// AddPages registers npages freshly allocated global pages. Pages are
	// numbered sequentially across calls, matching the host's layout.
	AddPages(npages int)

	// WriteTouch performs write-detection bookkeeping for page gp: twin
	// it if the protocol needs a twin, and record it for a write notice
	// at the next release.
	WriteTouch(gp int32)

	// Invalid reports whether gp has unapplied remote modifications.
	Invalid(gp int32) bool

	// Fault repairs one invalid page on the application process.
	Fault(gp int32)

	// FetchAggregated repairs all invalid pages of gps with one request
	// per remote peer (the enhanced interface's data aggregation).
	FetchAggregated(gps []int32)

	// Release closes the open interval: an RC release operation. kind
	// classifies any traffic the protocol generates (KindShutdown during
	// teardown barriers; otherwise the protocol picks its categories).
	Release(kind stats.Kind)

	// VC returns the node's live vector clock (read-only).
	VC() []int32

	// BatchSince appends to dst the notice batches a receiver with
	// vector clock rvc lacks, based on everything this node knows.
	BatchSince(dst []NoticeBatch, rvc []int32) []NoticeBatch

	// OwnBatch collects this node's own released intervals later than
	// since, as one batch (without intervals if there are none).
	OwnBatch(since int32) NoticeBatch

	// ApplyBatches incorporates received write notices (an RC acquire).
	ApplyBatches(bs []NoticeBatch)

	// Applied describes this node's copy of gp for a node that installs
	// it: per writer, the highest interval whose modifications the copy
	// holds (the node's own entry at its last release), then whatever
	// else the protocol tracks per writer. Only MarkApplied reads it.
	Applied(gp int32) []int32

	// MarkApplied records that a copy of gp, described by its holder's
	// Applied, was installed over the page (used by the broadcast
	// optimization, which ships data outside the protocol).
	MarkApplied(gp int32, applied []int32)

	// Rebalance closes a barrier epoch and returns the node's proposed
	// home-directory updates for arbitration at the barrier (home
	// placement policy; nil under the homeless protocol and the static
	// policy). Called after Release on every barrier arrival.
	Rebalance() []DirUpdate

	// ApplyDirectory installs the barrier-arbitrated directory updates,
	// identical on every node. New homes pull pages they cannot prove
	// current; kind classifies that traffic (KindShutdown during
	// teardown barriers). No-op for protocols without homes.
	ApplyDirectory(us []DirUpdate, kind stats.Kind)

	// FirePushes runs at the end of every barrier on the application
	// process: service the registered push directives, then consume the
	// expected incoming pushes. Protocols without push support treat both
	// as no-ops (consumers then fault and fetch as usual).
	FirePushes(p *sim.Proc, seq int, kind stats.Kind, pushes []*PushDirective, expects []int)

	// HandleServer dispatches one protocol message on the request-server
	// process. It reports whether the message belonged to the protocol.
	HandleServer(p *sim.Proc, m sim.Message) bool

	// Counters returns the node's protocol event counts.
	Counters() *Counters
}

// New creates a protocol instance bound to host. policy selects the
// home-placement policy of the home-based protocol (empty: static); the
// homeless protocol has no homes and ignores it.
func New(name Name, policy PolicyName, h Host) Protocol {
	var p Protocol
	switch name {
	case "", HomelessLRC:
		p = newHomeless(h)
	case HomeLRC:
		p = newHome(h, policy)
	default:
		panic(fmt.Sprintf("proto: unknown protocol %q", name))
	}
	if created != nil {
		created(p)
	}
	return p
}

// created, when set (tests only), sees every instance New makes: the
// invariant tests walk a whole run's nodes after it ends.
var created func(Protocol)
