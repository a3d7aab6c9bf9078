package harness

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/model"
	"repro/internal/proto"
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
			return hostBytes(t, app, c.v, cfg)
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

// hostBytes runs app's version v on cfg and returns the bytes the run
// allocated on the host.
func hostBytes(t *testing.T, app core.App, v core.Version, cfg core.Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := app.Run(v, cfg); err != nil {
		t.Fatalf("%s/%s at %d processors: %v", app.Name(), v, cfg.Procs, err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestJacobiHoldsOneGrid: Jacobi's seq, xhpf and pvme own the rows they
// relax, so they step one grid in place through a two-row line buffer
// (relaxRows). On one processor and on eight together they allocate at
// most 1.3 times one grid's bytes — blocks, halos, line buffers, halo
// messages and the simulator's state; a second grid makes it at least 2.
//
// tmk and tmk-push relax in place too, after Write has twinned the
// pages, so no node holds a private scratch grid either. What they hold
// is the nodes' frames of the shared grid and the protocol's twins and
// diffs: under lrc a twin of every page written, under hlrc none on the
// home node, so one processor holds 2.04 and 1.04 grids, and eight
// together 3.52 and 4.10. Each bound lies about half a grid above
// those: a private scratch grid, whole on one processor or a block on
// each of eight, adds one grid and fails it.
func TestJacobiHoldsOneGrid(t *testing.T) {
	app, err := exp.AppByName("Jacobi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{N1: 512, Iters: 2, Warmup: 1, Costs: model.SP2(), App: model.DefaultAppCosts()}
	grid := float64(4 * cfg.N1 * cfg.N1)
	for _, c := range []struct {
		vs       []core.Version
		protocol proto.Name
		procs    int
		bound    float64
	}{
		{[]core.Version{core.Seq, core.XHPF, core.PVMe}, "", 1, 1.3},
		{[]core.Version{core.XHPF, core.PVMe}, "", 8, 1.3},
		{[]core.Version{core.Tmk, core.TmkPush}, proto.HomelessLRC, 1, 2.5},
		{[]core.Version{core.Tmk, core.TmkPush}, proto.HomelessLRC, 8, 4.0},
		{[]core.Version{core.Tmk, core.TmkPush}, proto.HomeLRC, 1, 1.5},
		{[]core.Version{core.Tmk, core.TmkPush}, proto.HomeLRC, 8, 4.55},
	} {
		for _, v := range c.vs {
			cfg.Procs, cfg.Protocol = c.procs, c.protocol
			run := fmt.Sprintf("Jacobi/%s at %d processors", v, c.procs)
			if c.protocol != "" {
				run += " under " + string(c.protocol)
			}
			ratio := float64(hostBytes(t, app, v, cfg)) / grid
			t.Logf("%s: %.2f grids", run, ratio)
			if ratio > c.bound {
				t.Errorf("%s allocates %.2f times one grid's %.0f B: more than %.2f", run, ratio, grid, c.bound)
			}
		}
	}
}

// TestSequentialFFTHoldsOneArray: 3-D FFT's seq transforms the third
// dimension in place, as NAS FT's serial code does, so it allocates at
// most 1.3 times one array's bytes; the parallel versions' transposed
// copy makes it 2.
func TestSequentialFFTHoldsOneArray(t *testing.T) {
	const bound = 1.3
	app, err := exp.AppByName("3-D FFT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Procs: 1, N1: 32, N2: 32, N3: 32, Iters: 2, Warmup: 1, Costs: model.SP2(), App: model.DefaultAppCosts()}
	array := float64(16 * cfg.N1 * cfg.N2 * cfg.N3)
	ratio := float64(hostBytes(t, app, core.Seq, cfg)) / array
	t.Logf("3-D FFT/seq: %.2f arrays", ratio)
	if ratio > bound {
		t.Errorf("3-D FFT/seq allocates %.2f times one array's %.0f B: more than %.1f", ratio, array, bound)
	}
}
