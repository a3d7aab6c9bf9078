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
// version vocabulary, run configuration, results, and the timed-region
// bookkeeping shared by all application implementations (the paper
// excludes the first iteration from measurement; so do we).
package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Version names one implementation strategy of an application.
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
	// SPFOpt is the hand-optimized SPF version of §5 (aggregation,
	// merged loops — whichever optimization the paper applied).
	SPFOpt Version = "spf-opt"
	// TmkOpt is the hand-optimized TreadMarks version where the paper
	// reports one (MGS's merged broadcast).
	TmkOpt Version = "tmk-opt"
	// SPFOld is SPF under the original §2.3 compiler-runtime interface
	// (8(n-1) messages per loop); used by the interface ablation.
	SPFOld Version = "spf-old"
	// TmkPush replaces the default request-response page fetching with
	// §8's push: producers ship boundary diffs with the barrier, so
	// consumers never fault.
	TmkPush Version = "tmk-push"
	// SPFGen is the internal/loopc-compiled fork-join DSM version: the
	// same runtime as SPF, but the code is derived from the kernel's
	// loop-nest IR instead of written by hand. Bit-identical to SPF.
	SPFGen Version = "spf-gen"
	// XHPFGen is the internal/loopc-compiled message-passing version,
	// derived from the same IR. Bit-identical to XHPF.
	XHPFGen Version = "xhpf-gen"
)

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

	// Overhead attribution summed over application processes (DSM
	// versions only): time in page repair, synchronization and write
	// detection — the decomposition of the paper's §5/§6 analysis.
	FaultTime, SyncTime, WriteTime sim.Time

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
// timed region, summed over nodes. Zero when the run's cost model left
// contention off (Config.Costs.SerialNIC / BackplaneWays unset).
func (r Result) QueueTime() sim.Time { return sim.Time(r.Stats.TotalQueueNanos()) }

// QueueTimeBy returns the part of the queueing delay bound by one
// contention resource (out link, in link, or backplane), summed over
// nodes.
func (r Result) QueueTimeBy(res stats.QueueResource) sim.Time {
	return sim.Time(r.Stats.QueueResNanosOf(res))
}

// QueueTimeOf returns the part of the queueing delay accumulated by
// messages of one traffic category.
func (r Result) QueueTimeOf(k stats.Kind) sim.Time {
	return sim.Time(r.Stats.QueueKindNanosOf(k))
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

// Region tracks the timed region of a parallel run: per-process start
// and end clocks plus a baseline traffic snapshot. The measurement
// protocol (all versions):
//
//	warmup iterations
//	barrier                      ← all warm-up work quiesced
//	proc 0: reg.Baseline(stats)  ← nothing timed can have run yet
//	barrier                      ← nobody starts until baseline is taken
//	per proc: reg.Start(id, now)
//	timed iterations
//	final barrier
//	per proc: reg.End(id, now)
//	proc 0: reg.Final(stats)
//
// Because the simulator executes one process at a time in virtual-time
// order, and a process can pass the second barrier only after process 0
// (the barrier manager) has taken the baseline, the snapshot cleanly
// separates warm-up traffic from timed traffic.
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

// NProcs returns the number of processes the region tracks.
func (r *Region) NProcs() int { return len(r.start) }

// Window returns process id's timed window as [start, end] virtual
// nanoseconds, for obs.(*Trace).Attribute.
func (r *Region) Window(id int) [2]int64 {
	return [2]int64{int64(r.start[id]), int64(r.end[id])}
}

// AttachObs fills a result's observability fields from a run's trace and
// timed region: the trace rides along for export, and the region's
// per-process windows become per-node breakdowns. A single-process
// region under a multi-node run (the SPF master-only window) is
// replicated to every node: the fork-join versions time only the master,
// but every node's activity spans the same window. A nil trace attaches
// nothing.
func AttachObs(res *Result, tr *obs.Trace, reg *Region, nodes int) {
	if !tr.Enabled() {
		return
	}
	windows := make([][2]int64, nodes)
	for i := range windows {
		if reg.NProcs() == 1 {
			windows[i] = reg.Window(0)
		} else {
			windows[i] = reg.Window(i)
		}
	}
	res.Trace = tr
	res.Breakdown = tr.Attribute(windows)
}
