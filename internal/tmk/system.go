// Package tmk implements the TreadMarks software distributed shared
// memory system of the paper (§2.2) on the simulated SP/2 cluster:
//
//   - a paged global shared address space with access detection at 4 KB
//     granularity (software page table with compiler-style hoisted range
//     checks standing in for mprotect/SIGSEGV — see DESIGN.md);
//   - a pluggable coherence protocol (internal/proto): lazy invalidate
//     release consistency with vector timestamps, intervals and write
//     notices, as either the paper's homeless multiple-writer protocol
//     based on twins and run-length-encoded diffs (default) or a
//     home-based LRC with eager diff flushes and whole-page fetches;
//   - locks with statically assigned managers and last-requester
//     forwarding, where a release sends no messages;
//   - barriers with a centralized manager, costing 2(n-1) messages;
//   - the improved compiler interface of §2.3 (split barrier
//     arrival/departure carrying loop-control data); and
//   - the enhanced interface used for the paper's hand optimizations
//     (§5, §8): aggregated validation, broadcast and push.
//
// Each node contributes two simulated processes: an application process
// (ids 0..n-1) that runs user code, and a request-server process
// (ids n..2n-1) standing in for TreadMarks' SIGIO handler, which services
// diff, page and lock traffic while the application computes.
package tmk

import (
	"slices"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// System is a TreadMarks machine: n nodes on a simulated interconnect.
type System struct {
	nprocs   int
	costs    model.Costs
	cluster  *sim.Cluster
	protocol proto.Name
	policy   proto.PolicyName
	nodes    []*node
	// pageBufs holds, per region in allocation order, the *[][]T free list
	// of page buffers (dropped twins, installed page replies, returned
	// flush diffs) that every node's Region of that id draws from and
	// returns to.
	pageBufs []any
	// log is the run's interval log (proto.Host.IntervalLog): per
	// writer, its released intervals, shared by every node's protocol.
	log [][]proto.IntervalRec
	// diffRuns is scratch for the (offset, length) runs of the diff a
	// region is encoding, on any node.
	diffRuns [][2]int32
}

// Option configures a System.
type Option func(*System)

// WithProtocol selects the coherence protocol (default: the homeless
// TreadMarks LRC).
func WithProtocol(name proto.Name) Option {
	return func(s *System) {
		if name != "" {
			s.protocol = name
		}
	}
}

// WithHomePolicy selects the home-placement policy of the home-based
// protocol (default: static). The homeless protocol ignores it.
func WithHomePolicy(p proto.PolicyName) Option {
	return func(s *System) {
		if p != "" {
			s.policy = p
		}
	}
}

// NewSystem creates a TreadMarks system with nprocs nodes using the given
// cost model. The underlying simulator gets 2*nprocs processes.
func NewSystem(nprocs int, costs model.Costs, opts ...Option) *System {
	if nprocs < 1 {
		panic("tmk: need at least one process")
	}
	// 2*nprocs simulated processes on nprocs physical nodes: each
	// node's application process and request server share its NIC
	// under the contention model.
	cfg := costs.SimConfigNodes(2*nprocs, nprocs)
	s := &System{
		nprocs:   nprocs,
		costs:    costs,
		cluster:  sim.New(cfg),
		protocol: proto.HomelessLRC,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Stats returns the interconnect statistics collector.
func (s *System) Stats() *stats.Stats { return s.cluster.Stats() }

// NProcs returns the number of DSM nodes.
func (s *System) NProcs() int { return s.nprocs }

// Costs returns the cost model.
func (s *System) Costs() model.Costs { return s.costs }

// Protocol returns the coherence protocol the system runs.
func (s *System) Protocol() proto.Name { return s.protocol }

// HomePolicy returns the home-placement policy the system runs (empty:
// static, or a homeless system where homes do not exist).
func (s *System) HomePolicy() proto.PolicyName { return s.policy }

// ProtocolCounters returns the protocol event counts summed over every
// node, for the whole run (warm-up included — home migrations mostly
// happen in the first epochs, which the timed region excludes). Valid
// after Run returns.
func (s *System) ProtocolCounters() proto.Counters {
	var out proto.Counters
	for _, nd := range s.nodes {
		out.Add(nd.prot.Counters())
	}
	return out
}

// FrameCounters describe the host storage behind a system's regions.
// They cost no virtual time and are not part of a run's results.
type FrameCounters struct {
	Pages          int64 // pages given a frame
	Joins          int64 // validations that had to move or extend framed pages
	AbandonedBytes int64 // storage those joins copied out of and poisoned
}

// FrameCounters returns the region storage counts summed over every
// node. Valid after Run returns.
func (s *System) FrameCounters() FrameCounters {
	var out FrameCounters
	for _, nd := range s.nodes {
		out.Pages += nd.frames.Pages
		out.Joins += nd.frames.Joins
		out.AbandonedBytes += nd.frames.AbandonedBytes
	}
	return out
}

// Run executes body on every node's application process and returns when
// all have finished. Region allocation must be performed inside body,
// identically on every process (SPMD style), exactly as Fortran common
// blocks give every TreadMarks process the same shared layout.
func (s *System) Run(body func(tm *Tmk)) error {
	s.pageBufs, s.log = nil, make([][]proto.IntervalRec, s.nprocs)
	nodes := make([]*node, s.nprocs)
	for i := range nodes {
		nodes[i] = newNode(i, s)
	}
	s.nodes = nodes
	return s.cluster.Run(func(p *sim.Proc) {
		if p.ID() < s.nprocs {
			tm := &Tmk{p: p, nd: nodes[p.ID()], sys: s}
			tm.nd.tm = tm
			body(tm)
			tm.shutdown()
		} else {
			nd := nodes[p.ID()-s.nprocs]
			nd.serve(p)
		}
	})
}

// serverOf maps a node id to its request-server process id.
func (s *System) serverOf(nodeID int) int { return s.nprocs + nodeID }

// pageLoc maps a global page to its region-local position.
type pageLoc struct {
	region int16 // index into node.regions
	local  int32 // page index within the region
}

// node holds the per-node DSM state above the coherence protocol: the
// shared-memory layout, synchronization state, and the enhanced
// interface's registrations. It is shared between the node's application
// process and its server process; the simulator's sequential scheduler
// serializes all access. All coherence state lives in nd.prot.
type node struct {
	id  int
	sys *System
	tm  *Tmk // the application-side handle, set in Run

	// Coherence protocol instance (page metadata, vector clocks,
	// intervals, diff or home state).
	prot proto.Protocol

	// Shared-memory layout. Allocation is deterministic and identical on
	// all nodes, so global page ids agree everywhere.
	regions    []regionHandle
	pageLocs   []pageLoc
	barrierSeq int
	frames     FrameCounters // this node's share; regions count into it

	// Synchronization bookkeeping.
	lastReported int32     // own intervals reported to the barrier manager
	workerVC     [][]int32 // manager only: last-known vc per worker
	// The barrier messages this node refills once they are read: a
	// worker's arrival, the manager's departures and their batches.
	arr        *arrivalMsg
	deps       []departMsg
	depBatches []proto.NoticeBatch
	// dirPending gathers the home-policy directory proposals of one
	// barrier epoch, indexed by proposing node (manager only). Full
	// barriers consume them in place; the fork-join interface fills
	// them at Collect and drains them at the next Fork.
	dirPending [][]proto.DirUpdate

	// Locks.
	lockMgr  map[int]*lockManagerState // locks this node manages
	lockHold map[int]*lockHolderState  // token state for locks seen here

	// Enhanced-interface state: push pairings fired at every barrier and
	// the broadcast sequence counter.
	pushes   []*proto.PushDirective
	expects  []int
	bcastSeq int
}

func newNode(id int, s *System) *node {
	nd := &node{
		id:       id,
		sys:      s,
		lockMgr:  map[int]*lockManagerState{},
		lockHold: map[int]*lockHolderState{},
	}
	nd.prot = proto.New(s.protocol, s.policy, (*nodeHost)(nd))
	if id == 0 {
		nd.workerVC = make([][]int32, s.nprocs)
		for w := range nd.workerVC {
			nd.workerVC[w] = make([]int32, s.nprocs)
		}
		nd.dirPending = make([][]proto.DirUpdate, s.nprocs)
	}
	return nd
}

// setWorkerVC records a worker's vector clock as of its latest arrival
// (barrier manager bookkeeping).
func (nd *node) setWorkerVC(w int, vc []int32) {
	copy(nd.workerVC[w], vc)
}

// workerVCAt returns the manager's last-known vector clock for worker w.
func (nd *node) workerVCAt(w int) []int32 { return nd.workerVC[w] }

// addPages registers npages fresh global pages belonging to region rid,
// both in the layout map and with the protocol, and returns the first.
// Like the protocol's tables, the map grows by a whole region at once.
func (nd *node) addPages(rid, npages int) int {
	base := len(nd.pageLocs)
	nd.pageLocs = slices.Grow(nd.pageLocs, npages)
	for i := range npages {
		nd.pageLocs = append(nd.pageLocs, pageLoc{region: int16(rid), local: int32(i)})
	}
	nd.prot.AddPages(npages)
	return base
}

// nodeHost adapts a node to the proto.Host interface: it exposes the
// node's identity, processes, cost model, and the region layer's
// page-level data mechanism to the protocol, keyed by global page id.
type nodeHost node

func (h *nodeHost) NodeID() int           { return h.id }
func (h *nodeHost) NProcs() int           { return h.sys.nprocs }
func (h *nodeHost) AppProc() *sim.Proc    { return h.tm.p }
func (h *nodeHost) ServerOf(node int) int { return h.sys.serverOf(node) }
func (h *nodeHost) Costs() model.Costs    { return h.sys.costs }

func (h *nodeHost) IntervalLog() [][]proto.IntervalRec { return h.sys.log }

func (h *nodeHost) MakeTwin(gp int32) {
	loc := h.pageLocs[gp]
	h.regions[loc.region].makeTwin(loc.local)
}

func (h *nodeHost) ExtractDiff(gp int32, keepTwin bool) (any, int) {
	loc := h.pageLocs[gp]
	return h.regions[loc.region].extract(loc.local, keepTwin)
}

func (h *nodeHost) LendDiff(gp int32) (any, int) {
	loc := h.pageLocs[gp]
	return h.regions[loc.region].lend(loc.local)
}

func (h *nodeHost) ReturnDiff(gp int32, payload any) {
	h.regions[h.pageLocs[gp].region].giveBack(payload)
}

func (h *nodeHost) ApplyDiff(gp int32, payload any) {
	loc := h.pageLocs[gp]
	h.regions[loc.region].apply(loc.local, payload)
}

func (h *nodeHost) MergeDiffs(gp int32, payloads []any) (any, int) {
	loc := h.pageLocs[gp]
	return h.regions[loc.region].mergeRecs(payloads)
}

func (h *nodeHost) SnapshotPage(gp int32) (any, int) {
	loc := h.pageLocs[gp]
	return h.regions[loc.region].snapshotPage(loc.local)
}

func (h *nodeHost) InstallPage(gp int32, payload any) {
	loc := h.pageLocs[gp]
	h.regions[loc.region].installPage(loc.local, payload)
}
