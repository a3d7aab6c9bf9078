package harness

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/model"
)

// TestMessagePassingStorage: a message-passing processor holds what it
// computes on — 3-D FFT its planes and its transposed rows, MGS its
// cyclic rows and one pivot row, IGrid pvme its block and a halo row on
// either side, NBF one sum of the force buffers, over its block (xhpf)
// or on task 0 (pvme), Jacobi its block, a halo row a side and a line
// buffer (TestJacobiHoldsOneGrid) — so eight processors together
// allocate little more than one does alone. What a processor keeps
// whole on purpose is not counted: NBF's coordinates and force buffer,
// the snapshot that ships the buffer and, under xhpf, the buffer it
// receives the others' in — the unknown-pattern broadcast. What does
// count beside the storage is transmit buffers, above all those of the
// first transpose and of the untracked result gather, all in flight at
// once (0.5 to 1.1 times the data), so the bound is 2.5 times; a
// processor holding the whole array, or every processor's force
// buffer, makes it 2.6 to 14.
func TestMessagePassingStorage(t *testing.T) {
	const procs, bound = 8, 2.5
	fft := core.Config{N1: 32, N2: 32, N3: 32, Iters: 1}
	mgs := core.Config{N1: 256, Iters: 256}
	igrid := core.Config{N1: 200, Iters: 1}
	nbf := core.Config{N1: 8192, N2: 32, Iters: 1}
	vectors := func(k int) uint64 { return uint64(k * 4 * nbf.N1) } // k float32 vectors of NBF's
	for _, c := range []struct {
		app string
		v   core.Version
		cfg core.Config
		// replicated is what one processor keeps whole on purpose.
		replicated uint64
	}{
		{"3-D FFT", core.XHPF, fft, 0},
		{"3-D FFT", core.PVMe, fft, 0},
		{"MGS", core.XHPF, mgs, 0},
		{"MGS", core.PVMe, mgs, 0},
		{"IGrid", core.PVMe, igrid, 0},
		{"NBF", core.XHPF, nbf, vectors(3 + 3)},
		{"NBF", core.PVMe, nbf, vectors(3 + 2)},
	} {
		app, err := exp.AppByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		alloc := func(procs int) uint64 {
			cfg := c.cfg
			cfg.Procs, cfg.Costs, cfg.App = procs, model.SP2(), model.DefaultAppCosts()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := app.Run(c.v, cfg); err != nil {
				t.Fatalf("%s/%s at %d processors: %v", c.app, c.v, procs, err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		alloc(1) // IGrid's map and NBF's partner lists are built once per size
		one, many := alloc(1), alloc(procs)-(procs-1)*c.replicated
		ratio := float64(many) / float64(one)
		t.Logf("%s/%s: %d B at 1 processor, %d B at %d not counting replicated data: %.2fx", c.app, c.v, one, many, procs, ratio)
		if ratio > bound {
			t.Errorf("%s/%s: %d processors allocate %d B not counting replicated data, %.2f times the %d B of one: more than %.1f",
				c.app, c.v, procs, many, ratio, one, bound)
		}
	}
}

// TestJacobiHoldsOneGrid: Jacobi's seq, xhpf and pvme own the rows they
// relax, so they step one grid in place through a two-row line buffer
// (relaxRows) where the shared-memory versions need a scratch array.
// On one processor and on eight together they allocate at most 1.3
// times one grid's bytes — blocks, halos, line buffers, halo messages
// and the simulator's state; a second grid makes it at least 2.
func TestJacobiHoldsOneGrid(t *testing.T) {
	const bound = 1.3
	app, err := exp.AppByName("Jacobi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{N1: 512, Iters: 2, Warmup: 1, Costs: model.SP2(), App: model.DefaultAppCosts()}
	grid := float64(4 * cfg.N1 * cfg.N1)
	for _, v := range []core.Version{core.Seq, core.XHPF, core.PVMe} {
		for _, procs := range []int{1, 8} {
			if v == core.Seq && procs > 1 {
				continue
			}
			cfg.Procs = procs
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := app.Run(v, cfg); err != nil {
				t.Fatalf("Jacobi/%s at %d processors: %v", v, procs, err)
			}
			runtime.ReadMemStats(&after)
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / grid
			t.Logf("Jacobi/%s at %d processors: %.2f grids", v, procs, ratio)
			if ratio > bound {
				t.Errorf("Jacobi/%s at %d processors allocates %.2f times one grid's %.0f B: more than %.1f", v, procs, ratio, grid, bound)
			}
		}
	}
}
