// Package apputil carries the measurement protocol shared by all six
// applications: warm-up exclusion, timed-region traffic snapshots, and
// the per-flavor run scaffolding (sequential, TreadMarks, SPF fork-join,
// XHPF SPMD, PVMe). See core.Region for the boundary protocol.
package apputil

import (
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

// SeqProgram is a sequential run: iterate is called Warmup+Iters times;
// checksum is evaluated at the end.
type SeqProgram struct {
	Iterate  func(k int)
	Checksum func() float64
}

// RunSeq measures a sequential program on a 1-process TreadMarks system
// (synchronization removed, per paper §3) charging only compute costs.
func RunSeq(app string, cfg core.Config, setup func(tm *tmk.Tmk) SeqProgram) (core.Result, error) {
	sys := tmk.NewSystem(1, cfg.Costs, tmk.WithProtocol(cfg.Protocol), tmk.WithHomePolicy(cfg.HomePolicy))
	reg := core.NewRegion(1)
	var sum float64
	err := sys.Run(func(tm *tmk.Tmk) {
		p := setup(tm)
		for k := 0; k < cfg.Warmup; k++ {
			p.Iterate(k)
		}
		reg.Baseline(sys.Stats())
		reg.Start(0, tm.Now())
		for k := 0; k < cfg.Iters; k++ {
			p.Iterate(cfg.Warmup + k)
		}
		reg.End(0, tm.Now())
		reg.Final(sys.Stats())
		sum = p.Checksum()
	})
	if err != nil {
		return core.Result{}, err
	}
	res := core.Result{
		App: app, Version: core.Seq, Procs: 1,
		Time: reg.Elapsed(), Stats: reg.Traffic(), Checksum: sum,
	}
	core.AttachObs(&res, cfg.Costs.Trace, reg, 1)
	return res, nil
}

// TmkProgram is a hand-coded TreadMarks program. Iterate runs on every
// process; Checksum runs on process 0 after measurement (its page faults
// are not counted).
type TmkProgram struct {
	Iterate  func(k int)
	Checksum func() float64
}

// RunTmk measures a TreadMarks program.
func RunTmk(app string, v core.Version, cfg core.Config, setup func(tm *tmk.Tmk) TmkProgram) (core.Result, error) {
	sys := tmk.NewSystem(cfg.Procs, cfg.Costs, tmk.WithProtocol(cfg.Protocol), tmk.WithHomePolicy(cfg.HomePolicy))
	reg := core.NewRegion(cfg.Procs)
	var sum float64
	profiles := make([]tmk.Profile, cfg.Procs)
	err := sys.Run(func(tm *tmk.Tmk) {
		p := setup(tm)
		for k := 0; k < cfg.Warmup; k++ {
			p.Iterate(k)
		}
		tm.BarrierSilent()
		if tm.ID() == 0 {
			reg.Baseline(sys.Stats())
		}
		tm.BarrierSilent()
		base := tm.Profile()
		reg.Start(tm.ID(), tm.Now())
		for k := 0; k < cfg.Iters; k++ {
			p.Iterate(cfg.Warmup + k)
		}
		reg.End(tm.ID(), tm.Now())
		end := tm.Profile()
		profiles[tm.ID()] = tmk.Profile{
			Fault:   end.Fault - base.Fault,
			Barrier: end.Barrier - base.Barrier,
			Lock:    end.Lock - base.Lock,
			Write:   end.Write - base.Write,
		}
		tm.BarrierSilent()
		if tm.ID() == 0 {
			reg.Final(sys.Stats())
			sum = p.Checksum()
		}
	})
	if err != nil {
		return core.Result{}, err
	}
	res := core.Result{
		App: app, Version: v, Procs: cfg.Procs, Protocol: sys.Protocol(),
		Time: reg.Elapsed(), Stats: reg.Traffic(), Checksum: sum,
	}
	for _, pr := range profiles {
		res.FaultTime += pr.Fault
		res.SyncTime += pr.Barrier + pr.Lock
		res.WriteTime += pr.Write
	}
	addSystemCounters(&res, sys)
	core.AttachObs(&res, cfg.Costs.Trace, reg, cfg.Procs)
	return res, nil
}

// addSystemCounters records what the DSM system counted over the whole
// run into the result: the host storage behind its regions, and the
// home-policy identity and migration activity. The homeless protocol has
// no homes: a configured policy was never consulted and must not be
// reported as part of the measurement.
func addSystemCounters(res *core.Result, sys *tmk.System) {
	fc := sys.FrameCounters()
	res.FramedPages, res.FrameJoins, res.AbandonedBytes = fc.Pages, fc.Joins, fc.AbandonedBytes
	if sys.Protocol() != proto.HomeLRC {
		return
	}
	res.HomePolicy = sys.HomePolicy()
	ctr := sys.ProtocolCounters()
	res.Migrations = ctr.Migrations
	res.RedirectedFlushBytes = ctr.RedirectedFlushBytes
	res.StaleForwards = ctr.StaleForwards
}

// SPFProgram is a compiler-generated program: IterateMaster is the
// master's per-iteration main program (built from ParallelDo calls and
// sequential sections); Checksum runs on the master at the end.
type SPFProgram struct {
	IterateMaster func(k int)
	Checksum      func() float64
}

// RunSPF measures a fork-join SPF program. Workers sit in the dispatch
// loop; between a join and the next fork they are blocked, so the
// master's snapshots cleanly separate warm-up from timed traffic.
func RunSPF(app string, v core.Version, cfg core.Config, opts spf.Options,
	setup func(rt *spf.Runtime) SPFProgram) (core.Result, error) {
	sys := tmk.NewSystem(cfg.Procs, cfg.Costs, tmk.WithProtocol(cfg.Protocol), tmk.WithHomePolicy(cfg.HomePolicy))
	reg := core.NewRegion(1)
	var sum float64
	err := spf.Run(sys, opts, func(rt *spf.Runtime) {
		p := setup(rt)
		if !rt.IsMaster() {
			rt.Serve()
			return
		}
		for k := 0; k < cfg.Warmup; k++ {
			p.IterateMaster(k)
		}
		reg.Baseline(sys.Stats())
		reg.Start(0, rt.Now())
		for k := 0; k < cfg.Iters; k++ {
			p.IterateMaster(cfg.Warmup + k)
		}
		reg.End(0, rt.Now())
		reg.Final(sys.Stats())
		sum = p.Checksum()
		rt.Done()
	})
	if err != nil {
		return core.Result{}, err
	}
	res := core.Result{
		App: app, Version: v, Procs: cfg.Procs, Protocol: sys.Protocol(),
		Time: reg.Elapsed(), Stats: reg.Traffic(), Checksum: sum,
	}
	addSystemCounters(&res, sys)
	core.AttachObs(&res, cfg.Costs.Trace, reg, cfg.Procs)
	return res, nil
}

// PVMProgram is a hand-coded message-passing program.
type PVMProgram struct {
	Iterate  func(k int)
	Checksum func() float64 // evaluated on task 0; gather untracked data first
}

// RunPVM measures a PVMe program. Timed-region boundaries use untracked
// barriers (measurement infrastructure, excluded from Table 2/3 counts).
func RunPVM(app string, v core.Version, cfg core.Config, setup func(pv *pvm.PVM) PVMProgram) (core.Result, error) {
	sys := pvm.NewSystem(cfg.Procs, cfg.Costs)
	reg := core.NewRegion(cfg.Procs)
	var sum float64
	err := sys.Run(func(pv *pvm.PVM) {
		p := setup(pv)
		for k := 0; k < cfg.Warmup; k++ {
			p.Iterate(k)
		}
		pv.BarrierSilent(1 << 12)
		if pv.ID() == 0 {
			reg.Baseline(sys.Stats())
		}
		pv.BarrierSilent(1<<12 + 2)
		reg.Start(pv.ID(), pv.Now())
		for k := 0; k < cfg.Iters; k++ {
			p.Iterate(cfg.Warmup + k)
		}
		reg.End(pv.ID(), pv.Now())
		pv.BarrierSilent(1<<12 + 4)
		if pv.ID() == 0 {
			reg.Final(sys.Stats())
		}
		if p.Checksum != nil {
			s := p.Checksum()
			if pv.ID() == 0 {
				sum = s
			}
		}
	})
	if err != nil {
		return core.Result{}, err
	}
	res := core.Result{
		App: app, Version: v, Procs: cfg.Procs,
		Time: reg.Elapsed(), Stats: reg.Traffic(), Checksum: sum,
	}
	core.AttachObs(&res, cfg.Costs.Trace, reg, cfg.Procs)
	return res, nil
}

// XHPFProgram is a compiler-generated SPMD message-passing program.
type XHPFProgram struct {
	Iterate  func(k int)
	Checksum func() float64
}

// RunXHPF measures an XHPF program. v distinguishes the hand-written
// compiler model (core.XHPF) from the loopc-generated one (core.XHPFGen).
func RunXHPF(app string, v core.Version, cfg core.Config, setup func(x *xhpf.XHPF) XHPFProgram) (core.Result, error) {
	sys := xhpf.NewSystem(cfg.Procs, cfg.Costs)
	reg := core.NewRegion(cfg.Procs)
	var sum float64
	err := sys.Run(func(x *xhpf.XHPF) {
		p := setup(x)
		for k := 0; k < cfg.Warmup; k++ {
			p.Iterate(k)
		}
		x.BoundarySync()
		if x.ID() == 0 {
			reg.Baseline(sys.Stats())
		}
		x.BoundarySync()
		reg.Start(x.ID(), x.Now())
		for k := 0; k < cfg.Iters; k++ {
			p.Iterate(cfg.Warmup + k)
		}
		reg.End(x.ID(), x.Now())
		x.BoundarySync()
		if x.ID() == 0 {
			reg.Final(sys.Stats())
		}
		if p.Checksum != nil {
			s := p.Checksum()
			if x.ID() == 0 {
				sum = s
			}
		}
	})
	if err != nil {
		return core.Result{}, err
	}
	res := core.Result{
		App: app, Version: v, Procs: cfg.Procs,
		Time: reg.Elapsed(), Stats: reg.Traffic(), Checksum: sum,
	}
	core.AttachObs(&res, cfg.Costs.Trace, reg, cfg.Procs)
	return res, nil
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
