// Package core is the evaluation framework of the reproduction — the
// paper's primary contribution is the head-to-head comparison of four
// ways to run the same program on a message-passing machine:
//
//	SPF   compiler-generated shared memory on TreadMarks
//	Tmk   hand-coded shared memory on TreadMarks
//	XHPF  compiler-generated message passing
//	PVMe  hand-coded message passing
//
// plus the hand-optimized variants of §5. This package defines the
// version vocabulary and its one table of facts (VersionTable), run
// configuration, results, and the timed-region bookkeeping shared by
// all application implementations (the paper excludes the first
// iteration from measurement; so do we).
package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Version names one implementation strategy of an application; what it
// is, whichever application runs it, is its row of VersionTable.
type Version string

const (
	// Seq is the sequential baseline: the TreadMarks program with all
	// synchronization removed, run on one processor (paper §3).
	Seq Version = "seq"
	// SPF is compiler-generated shared memory (Forge SPF → TreadMarks).
	SPF Version = "spf"
	// Tmk is hand-coded shared memory on TreadMarks.
	Tmk Version = "tmk"
	// XHPF is compiler-generated message passing (Forge XHPF).
	XHPF Version = "xhpf"
	// PVMe is hand-coded message passing.
	PVMe Version = "pvme"
	// SPFOpt and TmkOpt are §5's hand optimizations, where the paper
	// reports one: aggregation or merged loops, MGS's merged broadcast.
	SPFOpt Version = "spf-opt"
	TmkOpt Version = "tmk-opt"
	// SPFOld is SPF under §2.3's original interface (8(n-1) messages per
	// loop), for the interface ablation.
	SPFOld Version = "spf-old"
	// TmkPush is §8's push: producers ship boundary diffs with the
	// barrier, so consumers never fault.
	TmkPush Version = "tmk-push"
	// SPFGen and XHPFGen are compiled by internal/loopc from the kernel's
	// loop-nest IR; they are bit-identical to SPF and XHPF.
	SPFGen  Version = "spf-gen"
	XHPFGen Version = "xhpf-gen"
)

// Runtime names the system a version runs on: seq (one TreadMarks
// process with synchronization removed), tmk (TreadMarks by hand), spf
// (the SPF fork-join runtime over TreadMarks), xhpf (XHPF SPMD message
// passing) or pvm (PVMe message passing).
type Runtime string

// The runtimes.
const (
	SeqRuntime  Runtime = "seq"
	TmkRuntime  Runtime = "tmk"
	SPFRuntime  Runtime = "spf"
	XHPFRuntime Runtime = "xhpf"
	PVMRuntime  Runtime = "pvm"
)

// OnDSM reports whether the runtime's programs share memory through
// TreadMarks, and so run under a coherence protocol and a home policy.
// The sequential runtime is one TreadMarks process that shares nothing.
func (r Runtime) OnDSM() bool { return r == TmkRuntime || r == SPFRuntime }

// VersionInfo is one row of the version table: what a version is,
// whichever application runs it. Which applications list a version, and
// the paper's numbers for it, stay with the applications and the harness.
type VersionInfo struct {
	Version Version
	Runtime Runtime
	// Varies names the version this one is a variant of: the §5 hand
	// optimization's baseline, the §2.3/§8 variants' base, the version a
	// generated row reproduces. Empty for a base version.
	Varies Version
	// Generated marks the rows internal/loopc compiles from a kernel's
	// loop-nest IR.
	Generated bool
	// OldInterface runs the version under §2.3's original fork-join
	// interface (spf.Options.Old).
	OldInterface bool
}

// versionTable has one row per Version constant: the sequential
// baseline, the four base versions in the order of the paper's figures,
// then the variants.
var versionTable = [...]VersionInfo{
	{Version: Seq, Runtime: SeqRuntime},
	{Version: SPF, Runtime: SPFRuntime},
	{Version: Tmk, Runtime: TmkRuntime},
	{Version: XHPF, Runtime: XHPFRuntime},
	{Version: PVMe, Runtime: PVMRuntime},
	{Version: SPFOpt, Runtime: SPFRuntime, Varies: SPF},
	{Version: TmkOpt, Runtime: TmkRuntime, Varies: Tmk},
	{Version: SPFOld, Runtime: SPFRuntime, Varies: SPF, OldInterface: true},
	{Version: TmkPush, Runtime: TmkRuntime, Varies: Tmk},
	{Version: SPFGen, Runtime: SPFRuntime, Varies: SPF, Generated: true},
	{Version: XHPFGen, Runtime: XHPFRuntime, Varies: XHPF, Generated: true},
}

// VersionTable returns the version table's rows in order.
func VersionTable() []VersionInfo { return append([]VersionInfo(nil), versionTable[:]...) }

// Describe returns v's row of the version table: the zero row, whose
// Version is empty, for a version the table does not name.
func Describe(v Version) VersionInfo {
	for _, row := range versionTable {
		if row.Version == v {
			return row
		}
	}
	return VersionInfo{}
}

// Scale selects a problem-size regime. Sizing lives with the
// application: every app package maps (scale, procs) to a concrete
// Config through App.Config, so no runner needs a per-app size table.
type Scale string

const (
	// PaperScale runs Table 1's data sets.
	PaperScale Scale = "paper"
	// MidScale runs reduced sizes that preserve the page-granularity
	// regime (rows/vectors of at least a page) at a fraction of the time.
	MidScale Scale = "mid"
	// SmallScale runs the tiny test sizes.
	SmallScale Scale = "small"
)

// Config carries a run's parameters. The per-application meaning of N1,
// N2, N3 is documented by each application package.
type Config struct {
	Procs  int
	N1     int
	N2     int
	N3     int
	Iters  int // timed iterations
	Warmup int // untimed leading iterations (paper: 1)
	// Costs carries the interconnect and protocol cost model, including
	// the network-contention knobs (SerialNIC, BackplaneWays) that every
	// runtime threads through to the simulator.
	Costs model.Costs
	App   model.AppCosts

	// Protocol selects the DSM coherence protocol for the TreadMarks
	// based versions (empty: the homeless TreadMarks LRC). Message
	// passing versions ignore it.
	Protocol proto.Name

	// HomePolicy selects the home-placement policy of the home-based
	// protocol (empty: static homes). The homeless protocol and the
	// message-passing versions ignore it.
	HomePolicy proto.PolicyName
}

// Result is the outcome of one (application, version, procs) run.
type Result struct {
	App      string
	Version  Version
	Procs    int
	Protocol proto.Name // coherence protocol (DSM versions only)
	Time     sim.Time   // elapsed virtual time of the timed region
	Stats    stats.Stats
	Checksum float64
	// Digest is FNV-1a over the output array's bit patterns in global
	// index order (apputil.Digest); 0 where the application computes
	// none.
	Digest uint64
	// WSum is a position-weighted sum of the output, Σ wᵢ·xᵢ with fixed
	// wᵢ in [1, 2), for an application whose versions agree only within
	// a tolerance (NBF); 0 where the application computes none.
	WSum float64

	// HomePolicy is the home-placement policy the run used (home-based
	// protocol only). The activity counters below are whole-run sums
	// over nodes (warm-up included — migrations concentrate in the
	// first epochs, which the timed region excludes): pages whose home
	// moved, flush bytes re-sent after a stale-home NACK, and protocol
	// requests NACKed while a directory update was in flight. All zero
	// under static homes and the homeless protocol.
	HomePolicy           proto.PolicyName
	Migrations           int64
	RedirectedFlushBytes int64
	StaleForwards        int64

	// Host storage behind the run's shared regions, whole-run sums over
	// nodes (DSM versions only): pages given a frame, validations that
	// had to move framed pages, and the bytes of storage those moves
	// abandoned. Facts about the host, for tests and profiles: they are
	// no part of a record.
	FramedPages, FrameJoins, AbandonedBytes int64

	// Breakdown is the per-node virtual-time attribution of the timed
	// region (observability runs only — nil when the run's cost model
	// carried no trace). Each node's components sum exactly to its timed
	// window; obs.Sum aggregates across nodes.
	Breakdown []obs.NodeBreakdown
	// Trace is the run's full event trace (observability runs only).
	// Exported with obs.(*Trace).WriteChrome.
	Trace *obs.Trace
}

// QueueTime returns the contention queueing delay accumulated over the
// timed region. Zero when the run's cost model left
// contention off (Config.Costs.SerialNIC / BackplaneWays unset).
func (r Result) QueueTime() sim.Time { return sim.Time(r.Stats.TotalQueueNanos()) }

// QueueTimeBy returns the part of the queueing delay bound by one
// contention resource (out link, in link, or backplane).
func (r Result) QueueTimeBy(res stats.QueueResource) sim.Time {
	return sim.Time(r.Stats.QueueResNanosOf(res))
}

// Speedup computes seqTime / r.Time.
func (r Result) Speedup(seqTime sim.Time) float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(seqTime) / float64(r.Time)
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s p=%d t=%v msgs=%d kb=%d sum=%g",
		r.App, r.Version, r.Procs, r.Time, r.Stats.TotalMsgs(), r.Stats.TotalKB(), r.Checksum)
}

// App is the interface every application package satisfies.
type App interface {
	// Name returns the application name as the paper uses it.
	Name() string
	// Config maps a problem-size regime and processor count to the
	// application's run parameters (sizes, iterations, warm-up). The
	// caller fills in the machine-level fields (Costs, App, Protocol).
	// Unknown scales resolve to PaperScale.
	Config(scale Scale, procs int) Config
	// Versions lists the supported versions.
	Versions() []Version
	// Run executes one version.
	Run(v Version, cfg Config) (Result, error)
}

// Region tracks the timed region of a run: per-process start and end
// clocks plus baseline and final traffic snapshots, taken by the one
// measurement protocol (apputil). Because the simulator executes one
// process at a time in virtual-time order, and a process can pass the
// boundary after the baseline only once process 0 has taken it, the
// snapshot cleanly separates warm-up traffic from timed traffic.
type Region struct {
	start, end []sim.Time
	base, last stats.Stats
	haveBase   bool
}

// NewRegion prepares bookkeeping for nprocs processes.
func NewRegion(nprocs int) *Region {
	return &Region{
		start: make([]sim.Time, nprocs),
		end:   make([]sim.Time, nprocs),
	}
}

// Baseline snapshots traffic at the end of warm-up (process 0 only,
// between the two boundary barriers).
func (r *Region) Baseline(st *stats.Stats) {
	r.base = *st
	r.haveBase = true
}

// Start records a process's clock at the beginning of the timed region.
func (r *Region) Start(id int, now sim.Time) { r.start[id] = now }

// End records a process's clock at the end of the timed region.
func (r *Region) End(id int, now sim.Time) { r.end[id] = now }

// Final snapshots traffic at the end of the timed region (process 0,
// after the final barrier, before any untimed postlude like checksums).
func (r *Region) Final(st *stats.Stats) { r.last = *st }

// Elapsed returns the timed-region wall time: latest end minus earliest
// start.
func (r *Region) Elapsed() sim.Time {
	var lo, hi sim.Time
	lo = sim.Forever
	for i := range r.start {
		if r.start[i] < lo {
			lo = r.start[i]
		}
		if r.end[i] > hi {
			hi = r.end[i]
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// Traffic returns the messages, bytes and contention queueing delay
// recorded during the timed region.
func (r *Region) Traffic() stats.Stats {
	out := r.last
	if r.haveBase {
		out.Sub(&r.base)
	}
	return out
}

// Windows returns each of nodes nodes' timed window as [start, end]
// virtual nanoseconds, for obs.(*Trace).Attribute. A region of one
// process under a run of several (the SPF master's) is every node's
// window: the fork-join versions time only the master, but every node's
// activity spans the same window.
func (r *Region) Windows(nodes int) [][2]int64 {
	windows := make([][2]int64, nodes)
	for i := range windows {
		p := i % len(r.start)
		windows[i] = [2]int64{int64(r.start[p]), int64(r.end[p])}
	}
	return windows
}
