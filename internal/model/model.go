// Package model holds the virtual-machine cost model: the constants that
// convert protocol events (messages, page faults, twins, diffs, packing)
// into virtual time on the simulated IBM SP/2.
//
// The paper's testbed was an 8-node SP/2 (thin nodes, 64 KB data cache,
// 128 MB memory) connected by the high-performance two-level crossbar
// switch, with TreadMarks 0.10.1 and XHPF over the user-level MPL library
// and the hand-coded message-passing programs over PVMe. None of that
// hardware is available, so these constants are *calibrated*, not
// measured: they are chosen in the mid-1990s ballpark (tens of
// microseconds of per-message software overhead, tens of MB/s of link
// bandwidth, a millisecond-class remote page fetch) and then tuned so the
// 1-processor virtual times land near Table 1 and the 8-processor
// speedups land near Figures 1 and 2. EXPERIMENTS.md records the
// resulting paper-vs-measured numbers. The *counts* of messages and bytes
// are not modeled at all — they fall out of the real protocol
// implementations — so the shape of every comparison is insensitive to
// moderate changes in these constants (see the sensitivity benchmarks).
package model

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// PageSize is the DSM page size in bytes, matching AIX's 4 KB pages.
const PageSize = 4096

// Costs describes one machine configuration.
type Costs struct {
	// Interconnect.
	Latency      sim.Time // one-way wire latency
	NanosPerByte float64  // inverse link bandwidth
	SendOverhead sim.Time // per-message sender CPU cost
	RecvOverhead sim.Time // per-message receiver CPU cost
	HeaderBytes  int      // per-message envelope

	// Contention (zero values: the infinite-capacity interconnect all
	// pre-contention experiments ran on). SerialNIC gives each node one
	// outgoing and one incoming link that transmit messages
	// back-to-back, FIFO per link, so concurrent sends through one
	// adapter queue instead of overlapping. BackplaneWays, when
	// positive, bounds the switch backplane to that many concurrent
	// full-rate transfers. See internal/sim's contention model.
	SerialNIC     bool
	BackplaneWays int

	// Trace, when non-nil, enables observability: the simulator and the
	// protocol layers append typed events (waits, queueing spans, fault
	// repairs, barrier/lock sync, home migrations) to it as the run
	// executes. Emission never advances virtual time, so enabling a
	// trace leaves every virtual time, message count and byte volume
	// bit-identical. Each run needs its own instance (the event buffer
	// is single-run state).
	Trace *obs.Trace

	// Message-passing library (PVMe/XHPF) data handling: packing data
	// into and out of transmit buffers costs CPU per byte. PVM-family
	// libraries were notorious for this; it is what keeps the large
	// message-passing transfers (e.g. the 3-D FFT transpose) from being
	// free even with few messages. The XHPF runtime pays an additional
	// per-byte cost for gathering and scattering array sections through
	// its distributed-array descriptors.
	PackNanosPerByte    float64
	UnpackNanosPerByte  float64
	SectionNanosPerByte float64

	// DSM (TreadMarks) costs.
	ReadFault        sim.Time // access-check miss servicing, requester side
	WriteFault       sim.Time // write detection (mprotect trap equivalent)
	TwinPage         sim.Time // copy a page to its twin
	DiffCreate       sim.Time // fixed cost to scan one page against its twin
	DiffPerByte      float64  // per changed byte, encode side
	DiffApply        sim.Time // fixed cost to apply one diff
	ApplyPerByte     float64  // per changed byte, apply side
	PageCopy         sim.Time // copy a full page into place
	HandlerWake      sim.Time // request-server dispatch (SIGIO handler entry)
	BarrierWork      sim.Time // manager bookkeeping per barrier
	LockWork         sim.Time // manager bookkeeping per lock transfer
	WriteNoticeBytes int      // wire size of one write notice
	IntervalBytes    int      // wire size of one interval record header
}

// SP2 returns the calibrated cost model used for all paper-reproduction
// experiments.
func SP2() Costs {
	return Costs{
		Latency:      60 * sim.Microsecond,
		NanosPerByte: 28.6, // ~35 MB/s user-level MPL bandwidth
		SendOverhead: 20 * sim.Microsecond,
		RecvOverhead: 20 * sim.Microsecond,
		HeaderBytes:  32,

		PackNanosPerByte:    90,
		UnpackNanosPerByte:  90,
		SectionNanosPerByte: 60,

		ReadFault:    150 * sim.Microsecond, // AIX signal delivery + handler entry
		WriteFault:   5 * sim.Microsecond,
		TwinPage:     4 * sim.Microsecond,
		DiffCreate:   25 * sim.Microsecond,
		DiffPerByte:  120,
		DiffApply:    10 * sim.Microsecond,
		ApplyPerByte: 120,
		PageCopy:     20 * sim.Microsecond,
		HandlerWake:  200 * sim.Microsecond, // request interrupt service
		BarrierWork:  10 * sim.Microsecond,
		LockWork:     5 * sim.Microsecond,

		WriteNoticeBytes: 8,
		IntervalBytes:    16,
	}
}

// WithContention applies the shared contention encoding to an existing
// calibration: 0 turns contention off, -1 serializes the NICs over an
// ideal backplane (the SP/2's micro-channel adapters without a switch
// bound), and N > 0 additionally bounds the backplane to N concurrent
// full-rate transfers. The paper attributes XHPF's collapse on the
// irregular applications to exactly the broadcast/gather storms the
// contended calibration makes expensive. Both CLIs' -contention flags
// and the harness sweep use this one encoding; other negative values
// are invalid (the CLIs reject them).
func (c Costs) WithContention(ways int) Costs {
	c.SerialNIC = ways != 0
	c.BackplaneWays = 0
	if ways > 0 {
		c.BackplaneWays = ways
	}
	return c
}

// SimConfig renders the interconnect part of the cost model as a
// simulator configuration for n processes, each on its own node.
func (c Costs) SimConfig(procs int) sim.Config {
	return c.SimConfigNodes(procs, procs)
}

// SimConfigNodes renders the interconnect model for procs simulated
// processes belonging to nodes physical nodes. Runtimes that pair an
// application process with a request-server process per node (the
// TreadMarks systems) pass procs = 2*nodes so both share the node's
// NIC under the contention model.
func (c Costs) SimConfigNodes(procs, nodes int) sim.Config {
	cfg := sim.Config{
		Procs:         procs,
		Latency:       c.Latency,
		NanosPerByte:  c.NanosPerByte,
		SendOverhead:  c.SendOverhead,
		RecvOverhead:  c.RecvOverhead,
		HeaderBytes:   c.HeaderBytes,
		BackplaneWays: c.BackplaneWays,
		Trace:         c.Trace,
	}
	if c.SerialNIC {
		cfg.Nodes = nodes
	}
	// Every runtime builds its simulator through here, so this is the
	// one place the trace learns the machine shape (procs = 2*nodes
	// marks the upper half as request-server processes).
	c.Trace.SetTopology(procs, nodes)
	return cfg
}

// PackCost returns the sender-side CPU time to pack n bytes for
// transmission through the message-passing library.
func (c Costs) PackCost(n int) sim.Time {
	return sim.Time(float64(n) * c.PackNanosPerByte)
}

// UnpackCost returns the receiver-side CPU time to unpack n bytes.
func (c Costs) UnpackCost(n int) sim.Time {
	return sim.Time(float64(n) * c.UnpackNanosPerByte)
}

// SectionCost returns the XHPF runtime's descriptor-driven gather or
// scatter cost for an n-byte array section.
func (c Costs) SectionCost(n int) sim.Time {
	return sim.Time(float64(n) * c.SectionNanosPerByte)
}

// DiffCreateCost returns the CPU time to scan a page and encode a diff of
// changed bytes.
func (c Costs) DiffCreateCost(changed int) sim.Time {
	return c.DiffCreate + sim.Time(float64(changed)*c.DiffPerByte)
}

// DiffApplyCost returns the CPU time to apply a diff of changed bytes.
func (c Costs) DiffApplyCost(changed int) sim.Time {
	return c.DiffApply + sim.Time(float64(changed)*c.ApplyPerByte)
}

// AppCosts is the per-application compute calibration: the virtual CPU
// time charged per innermost-loop element update. Chosen so the
// 1-processor runs land near Table 1's sequential times (MGS 56.4 s,
// 3-D FFT 37.7 s, IGrid 42.6 s, NBF 63.9 s). The Jacobi and Shallow rows
// of Table 1 are illegible in our source scan; their costs target the
// same ~10-40 Mflop/s sustained rate as the legible rows (see
// EXPERIMENTS.md).
type AppCosts struct {
	JacobiUpdate  sim.Time // 4-point stencil update, per element
	JacobiCopy    sim.Time // scratch-to-data copy, per element
	ShallowUpdate sim.Time // per element per array updated in a main loop
	ShallowCopy   sim.Time // wrap-around copy, per element
	MGSNormalize  sim.Time // per element of the pivot vector
	MGSOrtho      sim.Time // per element of dot+subtract update
	FFTButterfly  sim.Time // per complex butterfly
	FFTTouch      sim.Time // per element init/normalize/checksum work
	IGridUpdate   sim.Time // 9-point indirect stencil, per element
	IGridReduce   sim.Time // per element of the final max/min/sum
	NBFPair       sim.Time // per partner interaction
	NBFUpdate     sim.Time // per molecule coordinate/force update
	SORUpdate     sim.Time // red-black SOR 5-point relaxation, per point
}

// DefaultAppCosts returns the Table 1 calibration.
func DefaultAppCosts() AppCosts {
	return AppCosts{
		JacobiUpdate:  130,
		JacobiCopy:    45,
		ShallowUpdate: 160,
		ShallowCopy:   60,
		MGSNormalize:  110,
		MGSOrtho:      104,
		FFTButterfly:  650,
		FFTTouch:      90,
		IGridUpdate:   8900,
		IGridReduce:   120,
		NBFPair:       1030,
		NBFUpdate:     220,
		SORUpdate:     150,
	}
}
