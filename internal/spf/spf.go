// Package spf implements the runtime targeted by the APR Forge SPF
// shared-memory parallelizing compiler (paper §2.1), layered on the
// TreadMarks DSM. Execution follows the fork-join model: a single master
// processor runs the sequential portions of the program and dispatches
// encapsulated parallel-loop subroutines to worker processors, with
// block or cyclic iteration scheduling and lock-based scalar reductions.
//
// Two compiler-runtime interfaces are provided, mirroring §2.3:
//
//   - the improved interface (default): the fork is a barrier departure
//     carrying the loop-control variables and the join is a barrier
//     arrival — 2(n-1) messages per parallel loop;
//   - the original interface (Old: true): full barriers bracket the loop
//     and the loop-control variables live in two separate shared pages
//     that each worker page-faults in — 8(n-1) messages per loop.
//
// "Compiler-generated" application versions are written mechanically in
// this model: every parallel loop is a registered subroutine, all arrays
// accessed in parallel loops are allocated in shared memory (including
// scratch arrays a hand coder would keep private), and sequential code
// runs only on the master.
package spf

import (
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Sched selects the loop iteration distribution (§2.1: "a simple block
// or cyclic loop distribution mechanism").
type Sched uint8

const (
	// Block gives each processor one contiguous chunk of iterations.
	Block Sched = iota
	// Cyclic deals iterations round-robin across processors.
	Cyclic
	// Dynamic self-schedules: processors repeatedly claim chunks from a
	// lock-protected shared counter until the iteration space is
	// exhausted. This is the §8 "dynamic load balancing support"
	// extension; it trades lock traffic for balance on loops with
	// nonuniform iteration costs. The loop function is invoked once per
	// claimed chunk.
	Dynamic
)

// LoopFunc is an encapsulated parallel-loop subroutine. It must execute
// the iterations {lo, lo+stride, lo+2*stride, ...} < hi. args carries the
// loop-control variables the master passed to ParallelDo.
type LoopFunc func(lo, hi, stride int, args []int64)

// Options configures the runtime.
type Options struct {
	// Old selects the original compiler-runtime interface (§2.3's
	// unoptimized scheme): full barriers around each loop plus shared-
	// memory loop-control pages. Used by the interface ablation.
	Old bool
}

// Runtime is the per-processor SPF runtime handle.
type Runtime struct {
	tm         *tmk.Tmk
	opts       Options
	loops      []LoopFunc
	reductions int

	// Shared control pages for the old interface: the subroutine index
	// and the subroutine arguments live in different shared pages,
	// incurring two page faults per worker per loop (§2.3).
	ctrlIdx  *tmk.Region[int64]
	ctrlArgs *tmk.Region[int64]

	// Self-scheduling state for the Dynamic schedule (§8 extension).
	dynNext *tmk.Region[int64]
}

// dynLock protects the shared chunk counter.
const dynLock = 63

// ctrlMsg is the loop-control payload piggybacked on the fork departure
// under the improved interface.
type ctrlMsg struct {
	loop  int
	lo    int
	hi    int
	sched Sched
	args  []int64
	done  bool
}

// ctrlBytes models the wire size of the loop-control variables.
func ctrlBytes(c ctrlMsg) int { return 32 + 8*len(c.args) }

// Run executes body on every processor of the TreadMarks system with an
// SPF runtime attached. The body must allocate shared regions and
// register loops identically on every processor, then call Master or
// Serve depending on Runtime.IsMaster.
func Run(sys *tmk.System, opts Options, body func(rt *Runtime)) error {
	return sys.Run(func(tm *tmk.Tmk) {
		rt := &Runtime{tm: tm, opts: opts}
		if opts.Old {
			rt.ctrlIdx = tmk.Alloc[int64](tm, "spf.ctrl.idx", 8)
			rt.ctrlArgs = tmk.Alloc[int64](tm, "spf.ctrl.args", 16)
		}
		rt.dynNext = tmk.Alloc[int64](tm, "spf.dyn.next", 8)
		body(rt)
	})
}

// Tmk exposes the underlying DSM handle (for region allocation).
func (rt *Runtime) Tmk() *tmk.Tmk { return rt.tm }

// ID returns this processor's id.
func (rt *Runtime) ID() int { return rt.tm.ID() }

// NProcs returns the processor count.
func (rt *Runtime) NProcs() int { return rt.tm.NProcs() }

// IsMaster reports whether this processor runs the sequential program.
func (rt *Runtime) IsMaster() bool { return rt.tm.ID() == 0 }

// Advance charges compute time.
func (rt *Runtime) Advance(d sim.Time) { rt.tm.Advance(d) }

// Now returns the virtual clock.
func (rt *Runtime) Now() sim.Time { return rt.tm.Now() }

// RegisterLoop registers an encapsulated parallel-loop subroutine and
// returns its dispatch index. Must be called in the same order on every
// processor.
func (rt *Runtime) RegisterLoop(f LoopFunc) int {
	rt.loops = append(rt.loops, f)
	return len(rt.loops) - 1
}

// slice computes this processor's share of iterations [lo,hi).
func slice(id, nprocs, lo, hi int, sched Sched) (mylo, myhi, stride int) {
	n := hi - lo
	if n <= 0 {
		return lo, lo, 1
	}
	switch sched {
	case Block:
		chunk := (n + nprocs - 1) / nprocs
		mylo = lo + id*chunk
		myhi = mylo + chunk
		if myhi > hi {
			myhi = hi
		}
		if mylo > hi {
			mylo = hi
		}
		return mylo, myhi, 1
	case Cyclic:
		// Index-aligned: iteration j runs on processor j mod nprocs, so a
		// triangular loop like MGS's DO j = i+1, N keeps each vector bound
		// to one processor for the whole run.
		mylo = lo + ((id-lo)%nprocs+nprocs)%nprocs
		return mylo, hi, nprocs
	}
	panic("spf: unknown schedule")
}

// dynChunk picks the self-scheduling chunk size: an eighth of a fair
// share, bounded below.
func dynChunk(n, nprocs int) int {
	c := n / (8 * nprocs)
	if c < 1 {
		c = 1
	}
	return c
}

// ParallelDo dispatches parallel loop `loop` over iterations [lo,hi) with
// the given schedule. Master only: the master forks the workers, executes
// its own share, and joins.
func (rt *Runtime) ParallelDo(loop, lo, hi int, sched Sched, args ...int64) {
	if !rt.IsMaster() {
		panic("spf: ParallelDo on a worker")
	}
	c := ctrlMsg{loop: loop, lo: lo, hi: hi, sched: sched, args: args}
	if sched == Dynamic {
		// Reset the shared chunk counter before releasing the workers.
		w := rt.dynNext.Write(0, 1)
		w[0] = int64(lo)
	}
	if rt.opts.Old {
		rt.forkOld(c)
	} else {
		rt.tm.Fork(c, ctrlBytes(c))
	}
	rt.runSlice(c)
	if rt.opts.Old {
		rt.tm.Barrier()
	} else {
		rt.tm.Collect()
	}
}

// runSlice executes this processor's share of a dispatched loop.
func (rt *Runtime) runSlice(c ctrlMsg) {
	if c.sched == Dynamic {
		chunk := dynChunk(c.hi-c.lo, rt.NProcs())
		for {
			rt.tm.AcquireLock(dynLock)
			w := rt.dynNext.Write(0, 1)
			start := int(w[0])
			if start < c.hi {
				w[0] = int64(min(start+chunk, c.hi))
			}
			rt.tm.ReleaseLock(dynLock)
			if start >= c.hi {
				return
			}
			rt.loops[c.loop](start, min(start+chunk, c.hi), 1, c.args)
		}
	}
	mylo, myhi, stride := slice(rt.ID(), rt.NProcs(), c.lo, c.hi, c.sched)
	rt.loops[c.loop](mylo, myhi, stride, c.args)
}

// Serve is the worker dispatch loop: wait for forks, run the assigned
// slice, join; return when the master calls Done.
func (rt *Runtime) Serve() {
	if rt.IsMaster() {
		panic("spf: Serve on the master")
	}
	for {
		var c ctrlMsg
		if rt.opts.Old {
			c = rt.waitOld()
		} else {
			c = rt.tm.WaitFork().(ctrlMsg)
		}
		if c.done {
			return
		}
		rt.runSlice(c)
		if rt.opts.Old {
			rt.tm.Barrier()
		} else {
			rt.tm.Join()
		}
	}
}

// Done releases the workers from their dispatch loops. Master only.
func (rt *Runtime) Done() {
	if !rt.IsMaster() {
		panic("spf: Done on a worker")
	}
	c := ctrlMsg{done: true}
	if rt.opts.Old {
		rt.forkOld(c)
	} else {
		rt.tm.Fork(c, ctrlBytes(c))
	}
}

// forkOld implements the original interface's fork: the master writes
// the subroutine index and arguments into two separate shared pages and
// wakes everyone with a full barrier.
func (rt *Runtime) forkOld(c ctrlMsg) {
	idx := rt.ctrlIdx.Write(0, 5)
	idx[0] = int64(c.loop)
	idx[1] = int64(c.lo)
	idx[2] = int64(c.hi)
	idx[3] = int64(c.sched)
	if c.done {
		idx[4] = 1
	} else {
		idx[4] = 0
	}
	args := rt.ctrlArgs.Write(0, 16)
	for i, a := range c.args {
		args[i+1] = a
	}
	args[0] = int64(len(c.args))
	rt.tm.Barrier()
}

// waitOld is the worker side of the original interface: wait at the
// barrier, then page-fault the two control pages in.
func (rt *Runtime) waitOld() ctrlMsg {
	rt.tm.Barrier()
	idx := rt.ctrlIdx.Read(0, 5)
	args := rt.ctrlArgs.Read(0, 16)
	c := ctrlMsg{
		loop:  int(idx[0]),
		lo:    int(idx[1]),
		hi:    int(idx[2]),
		sched: Sched(idx[3]),
		done:  idx[4] != 0,
	}
	n := int(args[0])
	c.args = make([]int64, n)
	for i := 0; i < n; i++ {
		c.args[i] = args[i+1]
	}
	return c
}

// Reduction implements §2.1 scalar reductions: the reduction variable is
// allocated in shared memory and a lock serializes the cross-processor
// combine; each processor first accumulates into a private copy.
//
// Each processor combines into its own slot of the shared variable and
// the reader folds the slots in processor order, so the reduced value is
// independent of the order in which processors win the lock — lock-grant
// order varies with protocol timing, and floating-point combining must
// not (the cross-protocol equivalence tests rely on this).
type Reduction struct {
	shared *tmk.Region[float64]
	nprocs int
	lock   int
	op     func(a, b float64) float64
}

// NewReduction allocates a shared reduction variable (page-padded) and
// its lock, and fixes the combining op. Must be called in the same
// order, with the same op, on every processor.
func NewReduction(rt *Runtime, name string, op func(a, b float64) float64) *Reduction {
	n := rt.tm.NProcs()
	r := &Reduction{
		shared: tmk.Alloc[float64](rt.tm, "spf.red."+name, max(n, 8)),
		nprocs: n,
		op:     op,
	}
	r.lock = 64 + rt.reductions
	rt.reductions++
	return r
}

// Combine folds a processor's private partial value into its slot of the
// shared reduction variable under the lock.
func (r *Reduction) Combine(rt *Runtime, partial float64) {
	me := rt.tm.ID()
	rt.tm.AcquireLock(r.lock)
	w := r.shared.Write(me, me+1) // a view of this processor's slot alone
	w[0] = r.op(w[0], partial)
	rt.tm.ReleaseLock(r.lock)
}

// Value folds the per-processor slots in processor order (typically on
// the master after the join).
func (r *Reduction) Value() float64 {
	g := r.shared.Read(0, r.nprocs)
	v := g[0]
	for _, x := range g[1:] {
		v = r.op(v, x)
	}
	return v
}

// Reset sets every slot to the reduction identity (master, before the
// loop).
func (r *Reduction) Reset(v float64) {
	w := r.shared.Write(0, r.nprocs)
	for q := range w {
		w[q] = v
	}
}
