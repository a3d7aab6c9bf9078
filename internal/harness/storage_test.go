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
// or on task 0 (pvme) — so eight processors together allocate little
// more than one does alone. What a processor keeps whole on purpose is
// not counted: NBF's coordinates and force buffer, the snapshot that
// ships the buffer and, under xhpf, the buffer it receives the others'
// in — the unknown-pattern broadcast. What does count beside the
// storage is transmit buffers, above all those of the first transpose
// and of the untracked result gather, all in flight at once (0.5 to
// 1.1 times the data), so the bound is 2.5 times; a processor holding
// the whole array, or every processor's force buffer, makes it 2.6 to
// 14.
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
