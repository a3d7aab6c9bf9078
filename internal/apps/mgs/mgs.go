// Package mgs implements the paper's Modified Gramm-Schmidt application
// (§5.3): computing an orthonormal basis for N N-dimensional
// single-precision vectors. At iteration i the i-th vector is
// normalized sequentially, then every vector j > i is orthogonalized
// against it in parallel; vectors are dealt to processors cyclically for
// load balance and everyone synchronizes once per iteration.
//
// The version differences the paper analyzes:
//
//   - hand-coded TreadMarks normalizes on the vector's owner;
//   - SPF normalizes on the master (normalization is sequential code in
//     the fork-join model), so the vector crosses to the master and back;
//   - XHPF replicates the normalization on all processors (SPMD), after
//     the owner broadcasts the updated vector;
//   - hand-coded PVMe broadcasts the normalized vector — one message
//     carries both the data and the synchronization;
//   - the §5.3 hand optimization gives TreadMarks the same broadcast
//     (merged synchronization and data through the enhanced interface).
//
// Orientation: the paper's Fortran vectors are matrix columns
// (contiguous); here they are matrix rows (contiguous). A 1024-element
// single-precision vector is exactly one 4 KB page either way.
package mgs

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/spf"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

type app struct{}

// New returns the MGS application.
func New() core.App { return app{} }

func (app) Name() string { return "MGS" }

// Config: MGS's mid scale equals the paper scale — it must keep the
// vector-equals-page geometry (at any narrower width two cyclically
// owned vectors share a page and false sharing swamps the comparison).
func (app) Config(scale core.Scale, procs int) core.Config {
	switch scale {
	case core.SmallScale:
		return core.Config{Procs: procs, N1: 64, Iters: 64, Warmup: 0}
	default:
		return core.Config{Procs: procs, N1: 1024, Iters: 1024, Warmup: 0}
	}
}

func (app) Versions() []core.Version {
	return []core.Version{core.Seq, core.SPF, core.Tmk, core.XHPF, core.PVMe, core.TmkOpt}
}

func (a app) Run(v core.Version, cfg core.Config) (core.Result, error) {
	if cfg.Iters != cfg.N1 {
		return core.Result{}, fmt.Errorf("mgs: Iters must equal N1 (one iteration per vector)")
	}
	switch v {
	case core.Seq:
		return runSeq(cfg)
	case core.Tmk, core.TmkOpt:
		return runTmk(cfg, v)
	case core.SPF:
		return runSPF(cfg)
	case core.XHPF:
		return runXHPF(cfg)
	case core.PVMe:
		return runPVM(cfg)
	}
	return core.Result{}, fmt.Errorf("mgs: unsupported version %q", v)
}

// initValue is the deterministic pseudo-random initializer every version
// shares: a cheap integer hash mapped into [0.5, 1.5).
func initValue(i int) float32 {
	h := uint32(i)*2654435761 + 12345
	h ^= h >> 13
	h *= 2246822519
	h ^= h >> 16
	return 0.5 + float32(h%4096)/4096
}

func initMatrix(m []float32, n int) {
	for i := range m[:n*n] {
		m[i] = initValue(i)
	}
}

// dot64 is the deterministic float64 inner product every version uses:
// products accumulated in index order. The operands are cut to one
// length here and in orthoRow so the loops carry no bounds checks.
func dot64(a, b []float32) float64 {
	b = b[:len(a)]
	var s float64
	for k := range a {
		s += float64(a[k]) * float64(b[k])
	}
	return s
}

// normalizeRow scales row to unit length.
func normalizeRow(row []float32) {
	inv := float32(1 / math.Sqrt(dot64(row, row)))
	for k := range row {
		row[k] *= inv
	}
}

// orthoRow removes row's component along unit.
func orthoRow(row, unit []float32) {
	r := float32(dot64(unit, row))
	unit = unit[:len(row)]
	for k := range row {
		row[k] -= r * unit[k]
	}
}

func runSeq(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunSeq("MGS", cfg, func(tm *tmk.Tmk) apputil.Program {
		m := make([]float32, n*n)
		initMatrix(m, n)
		return apputil.Program{
			Iterate: func(i int) {
				normalizeRow(m[i*n : (i+1)*n])
				tm.Advance(apputil.Cost(n, cfg.App.MGSNormalize))
				for j := i + 1; j < n; j++ {
					orthoRow(m[j*n:(j+1)*n], m[i*n:(i+1)*n])
				}
				tm.Advance(apputil.Cost((n-i-1)*n, cfg.App.MGSOrtho))
			},
			Checksum: func() float64 { return apputil.Sum64(m) },
			Digest:   func() uint64 { return apputil.Digest(m) },
		}
	})
}

// runTmk is the hand-coded TreadMarks version and, as tmk-opt, the §5.3
// hand-optimized version, which broadcasts.
func runTmk(cfg core.Config, v core.Version) (core.Result, error) {
	n := cfg.N1
	broadcast := v == core.TmkOpt
	return apputil.RunTmk("MGS", v, cfg, func(tm *tmk.Tmk) apputil.Program {
		m := tmk.Alloc[float32](tm, "m", n*n)
		me, nprocs := tm.ID(), tm.NProcs()
		if me == 0 {
			initMatrix(m.Write(0, n*n), n)
		}
		tm.Barrier()
		return apputil.Program{
			Iterate: func(i int) {
				owner := i % nprocs
				if owner == me {
					normalizeRow(m.Write(i*n, (i+1)*n))
					tm.Advance(apputil.Cost(n, cfg.App.MGSNormalize))
				}
				if broadcast {
					// Merged synchronization and data: the owner ships the
					// normalized vector directly; no barrier, no faults.
					tmk.BroadcastRegion(tm, m, i*n, (i+1)*n, owner)
				} else {
					tm.Barrier()
				}
				m.Read(i*n, (i+1)*n) // fault the unit vector in once, up front
				var mine int
				for j := i + 1 + ((me-i-1)%nprocs+nprocs)%nprocs; j < n; j += nprocs {
					orthoRow(rowAndUnit(m, n, j, i))
					mine++
				}
				tm.Advance(apputil.Cost(mine*n, cfg.App.MGSOrtho))
			},
			Checksum: func() float64 { return apputil.Sum64(m.Read(0, n*n)) },
			Digest:   func() uint64 { return apputil.Digest(m.Read(0, n*n)) },
		}
	})
}

// runSPF is the compiler-generated shared-memory version: normalization
// is sequential code executed on the master (the vector migrates from
// its owner to the master and back out to every reader — the §5.3 SPF
// penalty), and the orthogonalization loop is dispatched cyclically.
func runSPF(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunSPF("MGS", core.SPF, cfg, func(rt *spf.Runtime) apputil.Program {
		tm := rt.Tmk()
		m := tmk.Alloc[float32](tm, "m", n*n)
		ortho := rt.RegisterLoop(func(lo, hi, stride int, args []int64) {
			i := int(args[0])
			m.Read(i*n, (i+1)*n) // fault the unit vector in once, up front
			var mine int
			for j := lo; j < hi; j += stride {
				orthoRow(rowAndUnit(m, n, j, i))
				mine++
			}
			rt.Advance(apputil.Cost(mine*n, cfg.App.MGSOrtho))
		})
		if rt.IsMaster() {
			initMatrix(m.Write(0, n*n), n)
		}
		return apputil.Program{
			Iterate: func(i int) {
				// Sequential section: normalize on the master.
				normalizeRow(m.Write(i*n, (i+1)*n))
				rt.Advance(apputil.Cost(n, cfg.App.MGSNormalize))
				rt.ParallelDo(ortho, i+1, n, spf.Cyclic, int64(i))
			},
			Checksum: func() float64 { return apputil.Sum64(m.Read(0, n*n)) },
			Digest:   func() uint64 { return apputil.Digest(m.Read(0, n*n)) },
		}
	})
}

// rowAndUnit validates row j of m for writing and returns its view with
// that of the unit vector, row i, which the caller has validated (so
// this Read is a lookup). The unit's view is taken after the row's:
// where vectors do not end on page boundaries, validating one can move
// the page it shares with the other.
func rowAndUnit(m *tmk.Region[float32], n, j, i int) (row, unit []float32) {
	row = m.Write(j*n, (j+1)*n)
	return row, m.Read(i*n, (i+1)*n)
}

// runXHPF is the compiler-generated message-passing version: the owner
// broadcasts the i-th vector, every processor performs the normalization
// redundantly (replicated sequential code in the SPMD model — the §5.3
// XHPF penalty), and the cyclic owner-computes loop updates local rows.
func runXHPF(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunXHPF("MGS", core.XHPF, cfg, func(x *xhpf.XHPF) apputil.Program {
		me, nprocs := x.ID(), x.NProcs()
		c := newCyclicRows(me, nprocs, n)
		var out apputil.Fold // the gathered matrix's, on task 0
		return apputil.Program{
			Iterate: func(i int) {
				owner := i % nprocs
				row := c.pivot(i)
				xhpf.Bcast(x, owner, row)
				// Replicated normalization: every processor computes it.
				normalizeRow(row)
				x.Advance(apputil.Cost(n, cfg.App.MGSNormalize))
				x.LoopSync() // generated sync after the scale loop
				var mine int
				for j := i + 1 + ((me-i-1)%nprocs+nprocs)%nprocs; j < n; j += nprocs {
					orthoRow(c.row(j), row)
					mine++
				}
				x.Advance(apputil.Cost(mine*n, cfg.App.MGSOrtho))
				x.LoopSync() // generated sync after the orthogonalize loop
			},
			Checksum: func() float64 { out = c.gather(x.PVM()); return out.Sum },
			Digest:   func() uint64 { return out.Digest },
		}
	})
}

// runPVM is the hand-coded message-passing version: the owner
// normalizes and broadcasts the i-th vector in one step; the broadcast
// is both the data movement and the synchronization.
func runPVM(cfg core.Config) (core.Result, error) {
	n := cfg.N1
	return apputil.RunPVM("MGS", core.PVMe, cfg, func(pv *pvm.PVM) apputil.Program {
		me, nprocs := pv.ID(), pv.NProcs()
		c := newCyclicRows(me, nprocs, n)
		var out apputil.Fold // the gathered matrix's, on task 0
		return apputil.Program{
			Iterate: func(i int) {
				owner := i % nprocs
				row := c.pivot(i)
				if owner == me {
					normalizeRow(row)
					pv.Advance(apputil.Cost(n, cfg.App.MGSNormalize))
				}
				pvm.Bcast(pv, owner, 300, row)
				var mine int
				for j := i + 1 + ((me-i-1)%nprocs+nprocs)%nprocs; j < n; j += nprocs {
					orthoRow(c.row(j), row)
					mine++
				}
				pv.Advance(apputil.Cost(mine*n, cfg.App.MGSOrtho))
			},
			Checksum: func() float64 { out = c.gather(pv); return out.Sum },
			Digest:   func() uint64 { return out.Digest },
		}
	})
}

// cyclicRows is a message-passing processor's share of the matrix: the
// rows j ≡ me (mod nprocs), stored densely in row order, plus one buffer
// for a pivot row some other processor owns.
type cyclicRows struct {
	me, nprocs, n int
	rows          []float32
	buf           []float32
}

func newCyclicRows(me, nprocs, n int) *cyclicRows {
	c := &cyclicRows{me: me, nprocs: nprocs, n: n, buf: make([]float32, n)}
	if me < n {
		c.rows = make([]float32, ((n-me+nprocs-1)/nprocs)*n)
	}
	for j := me; j < n; j += nprocs {
		row := c.row(j)
		for k := range row {
			row[k] = initValue(j*n + k)
		}
	}
	return c
}

// row returns global row j, which this processor owns.
func (c *cyclicRows) row(j int) []float32 {
	at := j / c.nprocs * c.n
	return c.rows[at : at+c.n]
}

// pivot returns the storage of pivot row i: the row itself on its owner,
// the receive buffer a broadcast fills everywhere else.
func (c *cyclicRows) pivot(i int) []float32 {
	if i%c.nprocs == c.me {
		return c.row(i)
	}
	return c.buf
}

// gather collects the rows on task 0, untracked, and returns there the
// checksum and digest apputil.Sum64 and apputil.Digest give over the
// whole matrix: every element folded in global index order, a received
// row through the pivot buffer as it arrives. Every other task returns
// a zero Fold.
func (c *cyclicRows) gather(pv *pvm.PVM) apputil.Fold {
	if c.me != 0 {
		for j := c.me; j < c.n; j += c.nprocs {
			pvm.SendUntracked(pv, 0, 400+j%64, c.row(j))
		}
		return apputil.Fold{}
	}
	f := apputil.NewFold()
	for j := 0; j < c.n; j++ {
		row := c.buf
		if j%c.nprocs == 0 {
			row = c.row(j)
		} else {
			pvm.RecvUntracked(pv, j%c.nprocs, 400+j%64, row)
		}
		f.Add(row)
	}
	return f
}
