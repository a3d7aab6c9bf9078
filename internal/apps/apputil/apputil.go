// Package apputil carries the measurement protocol shared by every
// version of every application — the paper's rule (§3): the warm-up
// iteration is excluded, and only timed-region traffic counts — and the
// helpers the applications share. The protocol is written once, in
// measure; each runtime's runner (RunSeq, RunTmk, RunSPF, RunXHPF,
// RunPVM) adds only how it starts its system, its boundary
// synchronization and its extras. See core.Region for why the
// boundaries separate warm-up from timed traffic.
package apputil

import (
	"math"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/stats"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

// Program is one version's measured loop as one process runs it:
// Iterate runs iteration k (the warm-up iterations first, then the timed
// ones), and Checksum is the untimed postlude. Under the SPF fork-join
// runtime it is the master's main program. Under message passing every
// process evaluates Checksum, which gathers; process 0's value is the
// result. A nil Checksum gives 0. Digest, when set, is evaluated on
// process 0 right after Checksum and gives the result's digest: Digest
// of the output array, which Checksum may keep for it when it gathers.
type Program struct {
	Iterate  func(k int)
	Checksum func() float64
	Digest   func() uint64
}

// process is one simulated process as the protocol sees it.
type process interface {
	ID() int
	Now() sim.Time
}

// measurement is one run's shared state: the timed region, the system
// whose traffic it snapshots, and what the processes report.
type measurement struct {
	cfg core.Config
	sys interface{ Stats() *stats.Stats }
	reg *core.Region
	// dsm, when set, is the TreadMarks system whose whole-run counters
	// the result reports.
	dsm    *tmk.System
	sum    float64 // process 0's checksum
	digest uint64  // process 0's digest
}

// unsynced is the boundary of a run whose one timed process has nobody
// to wait for.
func unsynced(int) {}

// measure is the protocol, run by every timed process:
//
//	warm-up iterations
//	boundary 0;  process 0: baseline traffic
//	boundary 1;  start
//	timed iterations
//	end;  boundary 2;  process 0: final traffic
//	checksum
//
// boundary is the runtime's synchronization, given the boundary's
// number. gather makes every process evaluate the checksum, not process
// 0 alone.
func (m *measurement) measure(pr process, p Program, boundary func(step int), gather bool) {
	id := pr.ID()
	for k := 0; k < m.cfg.Warmup; k++ {
		p.Iterate(k)
	}
	boundary(0)
	if id == 0 {
		m.reg.Baseline(m.sys.Stats())
	}
	boundary(1)
	m.reg.Start(id, pr.Now())
	for k := 0; k < m.cfg.Iters; k++ {
		p.Iterate(m.cfg.Warmup + k)
	}
	m.reg.End(id, pr.Now())
	boundary(2)
	if id == 0 {
		m.reg.Final(m.sys.Stats())
	}
	if p.Checksum != nil && (id == 0 || gather) {
		if sum := p.Checksum(); id == 0 {
			m.sum = sum
			if p.Digest != nil {
				m.digest = p.Digest()
			}
		}
	}
}

// finish returns the result of a run over procs nodes that ended with
// err. An observed run carries its trace and each node's breakdown of
// its timed window. The homeless protocol has no homes: a configured
// policy was never consulted and is not reported.
func (m *measurement) finish(app string, v core.Version, procs int, err error) (core.Result, error) {
	if err != nil {
		return core.Result{}, err
	}
	res := core.Result{App: app, Version: v, Procs: procs, Time: m.reg.Elapsed(), Stats: m.reg.Traffic(),
		Checksum: m.sum, Digest: m.digest}
	if tr := m.cfg.Costs.Trace; tr.Enabled() {
		res.Trace, res.Breakdown = tr, tr.Attribute(m.reg.Windows(procs))
	}
	if m.dsm != nil {
		res.Protocol = m.dsm.Protocol()
		fc := m.dsm.FrameCounters()
		res.FramedPages, res.FrameJoins, res.AbandonedBytes = fc.Pages, fc.Joins, fc.AbandonedBytes
		if res.Protocol == proto.HomeLRC {
			ctr := m.dsm.ProtocolCounters()
			res.HomePolicy = m.dsm.HomePolicy()
			res.Migrations = ctr.Migrations
			res.RedirectedFlushBytes = ctr.RedirectedFlushBytes
			res.StaleForwards = ctr.StaleForwards
		}
	}
	return res, nil
}

func newDSM(procs int, cfg core.Config) *tmk.System {
	return tmk.NewSystem(procs, cfg.Costs, tmk.WithProtocol(cfg.Protocol), tmk.WithHomePolicy(cfg.HomePolicy))
}

// RunSeq measures a sequential program on a 1-process TreadMarks system
// (synchronization removed, per paper §3) charging only compute costs.
func RunSeq(app string, cfg core.Config, setup func(tm *tmk.Tmk) Program) (core.Result, error) {
	sys := newDSM(1, cfg)
	m := &measurement{cfg: cfg, sys: sys, reg: core.NewRegion(1)}
	err := sys.Run(func(tm *tmk.Tmk) { m.measure(tm, setup(tm), unsynced, false) })
	return m.finish(app, core.Seq, 1, err)
}

// RunTmk measures a hand-coded TreadMarks program. Its boundaries are
// silent barriers and its checksum runs on process 0 alone (its page
// faults are not counted).
func RunTmk(app string, v core.Version, cfg core.Config, setup func(tm *tmk.Tmk) Program) (core.Result, error) {
	sys := newDSM(cfg.Procs, cfg)
	m := &measurement{cfg: cfg, sys: sys, reg: core.NewRegion(cfg.Procs), dsm: sys}
	err := sys.Run(func(tm *tmk.Tmk) {
		m.measure(tm, setup(tm), func(int) { tm.BarrierSilent() }, false)
	})
	return m.finish(app, v, cfg.Procs, err)
}

// RunSPF measures a fork-join SPF program under the fork-join interface
// the version's table row names. Only the master is timed: workers sit
// in the dispatch loop, and between a join and the next fork they are
// blocked, so the master's snapshots cleanly separate warm-up from timed
// traffic. Its one window is every node's (core.Region.Windows).
func RunSPF(app string, v core.Version, cfg core.Config, setup func(rt *spf.Runtime) Program) (core.Result, error) {
	sys := newDSM(cfg.Procs, cfg)
	m := &measurement{cfg: cfg, sys: sys, reg: core.NewRegion(1), dsm: sys}
	err := spf.Run(sys, spf.Options{Old: core.Describe(v).OldInterface}, func(rt *spf.Runtime) {
		p := setup(rt)
		if !rt.IsMaster() {
			rt.Serve()
			return
		}
		m.measure(rt, p, unsynced, false)
		rt.Done()
	})
	return m.finish(app, v, cfg.Procs, err)
}

// RunXHPF measures a compiler-generated SPMD message-passing program. v
// distinguishes the hand-written compiler model (core.XHPF) from the
// loopc-generated one (core.XHPFGen).
func RunXHPF(app string, v core.Version, cfg core.Config, setup func(x *xhpf.XHPF) Program) (core.Result, error) {
	sys := xhpf.NewSystem(cfg.Procs, cfg.Costs)
	m := &measurement{cfg: cfg, sys: sys, reg: core.NewRegion(cfg.Procs)}
	err := sys.Run(func(x *xhpf.XHPF) {
		m.measure(x, setup(x), func(int) { x.BoundarySync() }, true)
	})
	return m.finish(app, v, cfg.Procs, err)
}

// RunPVM measures a hand-coded PVMe program. Its boundaries are untracked
// barriers (measurement infrastructure, excluded from Table 2/3 counts).
func RunPVM(app string, v core.Version, cfg core.Config, setup func(pv *pvm.PVM) Program) (core.Result, error) {
	sys := pvm.NewSystem(cfg.Procs, cfg.Costs)
	m := &measurement{cfg: cfg, sys: sys, reg: core.NewRegion(cfg.Procs)}
	err := sys.Run(func(pv *pvm.PVM) {
		m.measure(pv, setup(pv), func(step int) { pv.BarrierSilent(1<<12 + 2*step) }, true)
	})
	return m.finish(app, v, cfg.Procs, err)
}

// BlockOf returns processor p's block [lo,hi) of extent n under BLOCK
// distribution (shared by all application partitionings).
func BlockOf(p, nprocs, n int) (lo, hi int) { return xhpf.BlockOf(p, nprocs, n) }

// Sum64 accumulates float32 values in index order into a float64, the
// checksum convention every version shares. Given several blocks it
// folds them one after another into the same accumulator, which is
// bitwise the sum of their concatenation: a gathered result
// (pvm.GatherUntracked) is summed without assembling it.
func Sum64(blocks ...[]float32) float64 {
	var s float64
	for _, xs := range blocks {
		for _, v := range xs {
			s += float64(v)
		}
	}
	return s
}

// Digest is FNV-1a over the bit patterns of float32 values in index
// order, one element word a step: the digest every version of an
// application computes over its output array. Unlike Sum64 it moves
// when values trade places. Given several blocks it folds them one
// after another, as Sum64 does, so a gathered result is digested
// without assembling it.
func Digest(blocks ...[]float32) uint64 {
	h := uint64(digestBasis)
	for _, xs := range blocks {
		for _, v := range xs {
			h ^= uint64(math.Float32bits(v))
			h *= digestPrime
		}
	}
	return h
}

// FNV-1a's 64-bit offset basis (the digest of no values) and prime.
const digestBasis, digestPrime = 14695981039346656037, 1099511628211

// Fold is the checksum and digest of an output array that arrives in
// pieces, in global order: after Add(a), Add(b), ... Sum is Sum64(a, b,
// ...) and Digest is Digest(a, b, ...) bit for bit. A result gather that
// receives each block into one reused buffer folds it as it arrives.
type Fold struct {
	Sum    float64
	Digest uint64
}

// NewFold returns the fold of no values.
func NewFold() Fold { return Fold{Digest: digestBasis} }

// Add folds the values of xs in index order.
func (f *Fold) Add(xs []float32) {
	s, h := f.Sum, f.Digest
	for _, v := range xs {
		s += float64(v)
		h ^= uint64(math.Float32bits(v))
		h *= digestPrime
	}
	f.Sum, f.Digest = s, h
}

// EdgesOne sets the four edges of the n×n grid g to one. g must be all
// zero on entry, as a fresh allocation or a fresh shared region is; the
// interior then stays zero, which is the Jacobi/RB-SOR initial
// condition. It does not clear g itself: every simulated process
// initializes its grids, and a second pass over memory the allocator
// just zeroed is measurable host time.
func EdgesOne(g []float32, n int) { EdgesOneRows(g, n, 0, n) }

// EdgesOneRows is EdgesOne for a band: g holds rows [rlo,rhi) of the
// n×n grid (a message-passing processor's block and halo).
func EdgesOneRows(g []float32, n, rlo, rhi int) {
	for i := rlo; i < rhi; i++ {
		row := g[(i-rlo)*n:][:n]
		if i == 0 || i == n-1 {
			for j := range row {
				row[j] = 1
			}
		}
		row[0], row[n-1] = 1, 1
	}
}

// Cost multiplies an element count by a per-element cost.
func Cost(n int, per sim.Time) sim.Time { return sim.Time(n) * per }
