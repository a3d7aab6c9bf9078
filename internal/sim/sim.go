//go:build go1.23

// Package sim implements a deterministic, conservative discrete-event
// simulator whose processes are coroutines with virtual clocks.
//
// The simulator stands in for the paper's 8-node IBM SP/2 (see DESIGN.md,
// internal/model). Each simulated processor runs real Go code on real
// data, but time is virtual: computation advances a processor's clock by
// explicitly charged amounts, and messages pay a configurable
// latency + size/bandwidth + software-overhead cost on the simulated
// interconnect.
//
// # Determinism
//
// Each process body is an iter.Pull coroutine, and Cluster.Run is the one
// loop that resumes them: it picks a process, calls its next function and
// gets control back when the process yields or finishes. So exactly one
// process executes at a time by construction, on the thread of Run's
// caller and without entering the Go scheduler, and a process's
// unsynchronized access to cluster state is ordered with every other's.
//
// The process resumed is the one with the minimum "effective" virtual
// time (ties broken by process id). A process blocked in Recv has
// effective time max(clock, earliest matching delivery); a ready process
// has its clock. Because the global minimum effective time is
// nondecreasing, any message consumed by a Recv is guaranteed to be the
// earliest-delivered match that will ever exist, so runs are
// bit-reproducible: identical virtual times, identical message orders,
// identical floating-point results.
//
// A running process is handed a "horizon" — the effective time of the
// next-best process. It may keep executing without rescheduling until its
// clock passes the horizon, which keeps scheduling overhead low without
// giving up determinism.
//
// # Contention
//
// By default links are infinite-capacity pipes: every message pays
// latency + size/bandwidth but concurrent transfers overlap perfectly.
// Setting Config.Nodes enables the serial-NIC contention model: the
// cluster's processes belong to Nodes physical nodes (process p lives on
// node p mod Nodes), and each node has one outgoing and one incoming
// link. A link transmits messages back-to-back in the order they reach
// it (FIFO per link), so concurrent sends through one NIC queue behind
// each other instead of overlapping. Config.BackplaneWays additionally
// bounds the switch backplane to that many concurrent full-rate
// transfers. Contention never reorders or drops messages — it only adds
// queueing delay — so the conservative scheduling argument above is
// unchanged: delivery times are fixed at send time, and queueing only
// pushes them later. Sends are processed in nondecreasing send-time
// order — a sender's clock never exceeds the minimum effective time of
// the other processes at the moment of a send, because each send
// tightens the sender's horizon to its own delivery time, the earliest
// instant the destination could act — so the link-busy bookkeeping is
// deterministic and FIFO in virtual time. See DESIGN.md, internal/sim,
// "Network contention".
package sim

import (
	"fmt"
	"iter"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Time is virtual time in nanoseconds.
type Time int64

// Forever is a time later than any event.
const Forever Time = math.MaxInt64

// Common durations.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Seconds converts a virtual duration to float seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// AnySrc and AnyTag are wildcards for Recv.
const (
	AnySrc = -1
	AnyTag = -1
)

// Message is a simulated network message.
type Message struct {
	Src      int
	Tag      int
	Payload  any
	Bytes    int        // modeled wire size, including header
	Kind     stats.Kind // accounting category
	sendTime Time       // sender clock when the message left
	deliver  Time       // arrival time at the destination
	queued   Time       // time spent waiting for busy links (contention)
	seq      uint64     // global sequence number, for deterministic ties
}

// Config describes the simulated machine.
type Config struct {
	// Procs is the number of simulated processes. Runtimes typically
	// create 2N processes for an N-node machine: N application processes
	// and N request-server processes (see DESIGN.md on interrupt-driven
	// request servicing).
	Procs int

	// Latency is the one-way wire latency of the interconnect.
	Latency Time

	// NanosPerByte is the inverse bandwidth of a link (ns per byte).
	NanosPerByte float64

	// SendOverhead and RecvOverhead are the per-message software costs
	// charged to the sender and receiver CPUs.
	SendOverhead Time
	RecvOverhead Time

	// HeaderBytes is added to every message's payload size for transfer
	// time and accounting.
	HeaderBytes int

	// Nodes, when positive, enables the serial-NIC contention model:
	// the processes belong to Nodes physical nodes (process p on node
	// p mod Nodes; runtimes that pair an application process with a
	// request server per node get both mapped to the same node), and
	// each node's single outgoing and single incoming link transmit
	// messages back-to-back, FIFO per link. Sends between processes of
	// the same node are loopback and bypass the NIC. Zero keeps the
	// original infinite-capacity links, bit-for-bit.
	Nodes int

	// BackplaneWays, when positive, models the shared switch backplane
	// as sustaining at most that many concurrent full-rate transfers:
	// each message occupies the backplane for wireTime/BackplaneWays.
	// Zero models an ideal non-blocking crossbar.
	BackplaneWays int

	// Stats receives per-message accounting. Optional.
	Stats *stats.Stats

	// Trace, when non-nil, receives observability events: a wait span
	// for every Recv clock jump (categorized by the received message's
	// kind, carrying the contention-queueing share) and a queueing span
	// for every message that waited for a busy link. Emission never
	// advances virtual time: a traced run's virtual times, message
	// counts and byte volumes are bit-identical to an untraced one.
	Trace *obs.Trace
}

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked // blocked in Recv
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "?"
}

// Proc is a simulated process. All methods must be called only from the
// process body.
type Proc struct {
	id      int
	c       *Cluster
	clock   Time
	horizon Time
	state   procState
	inbox   []Message
	waitSrc int
	waitTag int

	// eff caches effective(p) while p is not running: Run sets it when
	// the process yields, and Send lowers it when a new message matches
	// what a blocked p waits for. Nothing else can change it — only the
	// running process's clock moves and only it removes from its own
	// inbox — so pick compares cached times instead of rescanning inboxes.
	eff Time

	// The coroutine running the body: Run resumes it with next and ends
	// it early with stop; the body suspends itself with yield, passing
	// the state it waits in.
	next  func() (procState, bool)
	stop  func()
	yield func(procState) bool
}

// Cluster is a set of simulated processes plus the scheduler state.
type Cluster struct {
	cfg   Config
	procs []*Proc
	seq   uint64
	stats *stats.Stats

	// Contention state (Nodes > 0 or BackplaneWays > 0): the virtual
	// time at which each node's outgoing/incoming link and the shared
	// backplane finish their last accepted transfer. Monotone, because
	// sends are processed in nondecreasing send-time order.
	outFree []Time
	inFree  []Time
	bpFree  Time

	// Host-side counters (see host.go). Plain ints: updates happen
	// either in the scheduler loop or in the single running process,
	// never concurrently. hostPending tracks the current total inbox
	// depth feeding host.PeakQueue.
	host        HostStats
	hostPending int64

	// order is the sequence pick scans: of the processes tied at the
	// least effective time, the first in order runs. It is procs, so
	// the lowest id wins, unless a test reorders it (export_test.go).
	order []*Proc
	// onPick, when set (tests only), runs at the start of every pick.
	onPick func()
}

// onNew, when set (tests only), runs on every cluster New builds.
var onNew func(*Cluster)

// New creates a cluster with the given configuration.
func New(cfg Config) *Cluster {
	if cfg.Procs <= 0 {
		panic("sim: Config.Procs must be positive")
	}
	st := cfg.Stats
	if st == nil {
		st = &stats.Stats{}
	}
	if cfg.Nodes < 0 || cfg.BackplaneWays < 0 {
		panic("sim: negative Config.Nodes or Config.BackplaneWays")
	}
	c := &Cluster{cfg: cfg, stats: st}
	if cfg.Nodes > 0 {
		c.outFree = make([]Time, cfg.Nodes)
		c.inFree = make([]Time, cfg.Nodes)
	}
	c.procs = make([]*Proc, cfg.Procs)
	for i := range c.procs {
		c.procs[i] = &Proc{
			id:      i,
			c:       c,
			waitSrc: AnySrc,
			waitTag: AnyTag,
		}
	}
	c.order = c.procs
	if onNew != nil {
		onNew(c)
	}
	return c
}

// Stats returns the cluster's statistics collector.
func (c *Cluster) Stats() *stats.Stats { return c.stats }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// deadlockError reports that no process could make progress.
type deadlockError struct {
	states []string
}

func (e *deadlockError) Error() string {
	return "sim: deadlock: no runnable process\n  " + strings.Join(e.states, "\n  ")
}

// stopped is the panic value that unwinds a suspended process body when
// Run stops it early.
type stopped struct{}

// Run starts every process executing body and drives the scheduler until
// all processes finish. It returns a *deadlockError if the processes
// deadlock. If a process body panics, Run panics with the same value, so
// tests see the original failure. On either path the unfinished processes
// are stopped first — their bodies unwind, running their deferred calls —
// so no coroutine outlives Run.
func (c *Cluster) Run(body func(p *Proc)) error {
	defer c.foldHost()
	for _, p := range c.procs {
		p.next, p.stop = iter.Pull(func(yield func(procState) bool) {
			defer func() {
				if r := recover(); r != nil && r != (stopped{}) {
					panic(r)
				}
			}()
			p.yield = yield
			body(p)
		})
		defer p.stop()
	}
	for remaining := len(c.procs); remaining > 0; {
		p, horizon := c.pick()
		if p == nil {
			states := make([]string, len(c.procs))
			for i, q := range c.procs {
				states[i] = fmt.Sprintf("proc %d: %s clock=%v wait=(src=%d,tag=%d) inbox=%d",
					i, q.state, q.clock, q.waitSrc, q.waitTag, len(q.inbox))
			}
			return &deadlockError{states: states}
		}
		c.host.Dispatches++
		p.horizon, p.state = horizon, stateRunning
		var ok bool
		if p.state, ok = p.next(); !ok {
			p.state = stateDone
			remaining--
		}
		p.eff = c.effective(p)
	}
	return nil
}

// effective returns the scheduling priority time of p, or Forever if p
// cannot run.
func (c *Cluster) effective(p *Proc) Time {
	switch p.state {
	case stateReady:
		return p.clock
	case stateBlocked:
		if m := p.minMatch(p.waitSrc, p.waitTag); m >= 0 {
			return max(p.clock, p.inbox[m].deliver)
		}
		return Forever
	default:
		return Forever
	}
}

// pick chooses the runnable process of minimum effective time, the
// first in c.order among ties, or nil if none can run, and computes its
// horizon: the minimum effective time of the others, up to which the
// chosen process may run freely.
func (c *Cluster) pick() (best *Proc, horizon Time) {
	if c.onPick != nil {
		c.onPick()
	}
	bestT := Forever
	horizon = Forever
	for _, p := range c.order {
		switch t := p.eff; {
		case t < bestT:
			best, bestT, horizon = p, t, bestT
		case t < horizon:
			horizon = t
		}
	}
	return best, horizon
}

// yieldTo hands control back to the scheduler with the given state and
// waits to be rescheduled.
func (p *Proc) yieldTo(s procState) {
	if !p.yield(s) {
		panic(stopped{})
	}
}

// ID returns the process id in [0, Config.Procs).
func (p *Proc) ID() int { return p.id }

// N returns the total number of simulated processes.
func (p *Proc) N() int { return len(p.c.procs) }

// Cluster returns the owning cluster.
func (p *Proc) Cluster() *Cluster { return p.c }

// Now returns the process's virtual clock.
func (p *Proc) Now() Time { return p.clock }

// Advance charges d of virtual compute time to the process.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	p.clock += d
	if p.clock > p.horizon {
		p.yieldTo(stateReady)
	}
}

// Send transmits a message to process dst. The sender is charged
// SendOverhead; the message arrives at
// sendTime + Latency + bytes*NanosPerByte. Self-sends are forbidden:
// runtimes service local requests inline (a function call, not a message).
func (p *Proc) Send(dst, tag int, payload any, payloadBytes int, kind stats.Kind) {
	if dst == p.id {
		panic("sim: self-send; handle local requests inline")
	}
	if dst < 0 || dst >= len(p.c.procs) {
		panic(fmt.Sprintf("sim: send to invalid proc %d", dst))
	}
	p.Advance(p.c.cfg.SendOverhead)
	c := p.c
	wire := payloadBytes + c.cfg.HeaderBytes
	wireT := Time(float64(wire) * c.cfg.NanosPerByte)
	start, queued, binder := c.admit(p.id, dst, wireT)
	deliver := start + c.cfg.Latency + wireT
	c.seq++
	d := c.procs[dst]
	d.inbox = append(d.inbox, Message{
		Src:      p.id,
		Tag:      tag,
		Payload:  payload,
		Bytes:    wire,
		Kind:     kind,
		sendTime: p.clock,
		deliver:  deliver,
		queued:   queued,
		seq:      c.seq,
	})
	if d.state == stateBlocked && matches(d.waitSrc, d.waitTag, p.id, tag) {
		d.eff = min(d.eff, max(d.clock, deliver))
	}
	c.hostPending++
	if c.hostPending > c.host.PeakQueue {
		c.host.PeakQueue = c.hostPending
	}
	c.stats.Record(kind, wire)
	if queued > 0 {
		c.stats.RecordQueue(int64(queued), binder, kind)
		c.cfg.Trace.Span(obs.EvQueue, p.id, int64(p.clock), int64(queued), kind, -1, int64(binder))
	}
	// Keep the horizon honest under contention: this send may let dst
	// act as early as deliver, but the horizon handed to this process
	// predates the send. Without tightening it, the sender could keep
	// executing past that time and admit *later* sends to the links
	// first, breaking the nondecreasing-send-time order the link
	// bookkeeping's FIFO-per-link property rests on. The tightening is
	// gated on the contention model because the extra yields reorder
	// same-virtual-time interleavings (runtimes share per-node state
	// between application and server processes), and the zero-value
	// configuration must reproduce the historical schedule bit for bit.
	if (c.cfg.Nodes > 0 || c.cfg.BackplaneWays > 0) && deliver < p.horizon {
		p.horizon = deliver
	}
}

// admit pushes a wireT-long transfer from proc src to proc dst through
// the contention model at the sender's current clock. It returns the
// time the transfer begins occupying the wire (== the sender's clock
// when contention modeling is off or no resource is busy), the queueing
// delay, and the binding resource — the one whose busy-until time set
// the start (meaningful only when queued > 0; on ties the earliest
// resource in path order out, in, backplane binds) — and marks the
// sender's outgoing link, the receiver's incoming link and the
// backplane busy for the transfer.
//
// The model is cut-through, in the spirit of the SP/2's wormhole-routed
// two-level crossbar: once every resource on the path is free the
// message streams through all of them simultaneously, paying its
// serialization time wireT exactly once (so the uncontended delivery
// time is bit-identical to the infinite-capacity model). Each link is
// FIFO: because sends are processed in nondecreasing send-time order,
// busy-until times only move forward and messages through one link
// transmit back-to-back in send order.
func (c *Cluster) admit(src, dst int, wireT Time) (start, queued Time, binder stats.QueueResource) {
	start = c.procs[src].clock
	binder = stats.QueueOut
	nicOn := c.cfg.Nodes > 0
	var sn, dn int
	if nicOn {
		sn, dn = src%c.cfg.Nodes, dst%c.cfg.Nodes
		if sn == dn {
			// Loopback between processes of one node (e.g. an
			// application process and its own request server) does not
			// cross the NIC or the switch.
			return start, 0, binder
		}
		if c.outFree[sn] > start {
			start = c.outFree[sn]
			binder = stats.QueueOut
		}
		if c.inFree[dn] > start {
			start = c.inFree[dn]
			binder = stats.QueueIn
		}
	}
	if c.cfg.BackplaneWays > 0 && c.bpFree > start {
		start = c.bpFree
		binder = stats.QueueBackplane
	}
	if nicOn {
		c.outFree[sn] = start + wireT
		c.inFree[dn] = start + wireT
	}
	if c.cfg.BackplaneWays > 0 {
		c.bpFree = start + wireT/Time(c.cfg.BackplaneWays)
	}
	return start, start - c.procs[src].clock, binder
}

// matches reports whether a message from src under tag satisfies a Recv
// for (wantSrc, wantTag).
func matches(wantSrc, wantTag, src, tag int) bool {
	return (wantSrc == AnySrc || wantSrc == src) && (wantTag == AnyTag || wantTag == tag)
}

// minMatch returns the index of the earliest-delivered message matching
// (src, tag), or -1. Ties are broken by send sequence number, never by
// position, so Recv may fill a consumed slot with the last message.
func (p *Proc) minMatch(src, tag int) int {
	best := -1
	for i := range p.inbox {
		m := &p.inbox[i]
		if !matches(src, tag, m.Src, m.Tag) {
			continue
		}
		if best < 0 || m.deliver < p.inbox[best].deliver ||
			(m.deliver == p.inbox[best].deliver && m.seq < p.inbox[best].seq) {
			best = i
		}
	}
	return best
}

// Recv blocks until a message matching (src, tag) is available and safe to
// consume, removes it from the inbox, charges RecvOverhead, and returns
// it. Use AnySrc / AnyTag as wildcards.
func (p *Proc) Recv(src, tag int) Message {
	for {
		// Safe to consume only if no other process could still send an
		// earlier-delivered match. All other processes sit at effective
		// time >= horizon, and any message they send will deliver strictly
		// after that, so a match delivered at or before the horizon is
		// final.
		if i := p.minMatch(src, tag); i >= 0 && p.inbox[i].deliver <= p.horizon {
			m := p.inbox[i]
			last := len(p.inbox) - 1
			p.inbox[i] = p.inbox[last]
			p.inbox[last] = Message{} // drop the payload reference
			p.inbox = p.inbox[:last]
			p.c.hostPending--
			p.c.host.Delivered++
			if m.deliver > p.clock {
				// The clock jump is the process's idle wait for this
				// message: the fundamental stall the per-node time
				// attribution is built from. The contention-queueing
				// share rides along (clamped: delivery pipelining can
				// hide part of the queueing behind the wait).
				if tr := p.c.cfg.Trace; tr != nil {
					wait := int64(m.deliver - p.clock)
					tr.Span(obs.EvWait, p.id, int64(p.clock), wait, m.Kind, -1, min(int64(m.queued), wait))
				}
				p.clock = m.deliver
			}
			p.Advance(p.c.cfg.RecvOverhead)
			return m
		}
		p.waitSrc, p.waitTag = src, tag
		p.yieldTo(stateBlocked)
	}
}
