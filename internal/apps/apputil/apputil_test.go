package apputil

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps/kerneltest"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/tmk"
	"repro/internal/xhpf"
)

func TestSum64(t *testing.T) {
	if got := Sum64([]float32{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum64 = %v, want 6.5", got)
	}
	if got := Sum64(nil); got != 0 {
		t.Errorf("Sum64(nil) = %v, want 0", got)
	}
}

// TestDigest: blocks fold as their concatenation does, and the digest
// moves where Sum64 cannot — a row rotated by one place — and with a
// zero's sign, which is part of its bit pattern.
func TestDigest(t *testing.T) {
	row := []float32{1, 2, 3.5, 0.25}
	if got, want := Digest(row[:1], nil, row[1:]), Digest(row); got != want {
		t.Errorf("Digest of blocks = %d, of their concatenation %d", got, want)
	}
	rotated := []float32{row[3], row[0], row[1], row[2]}
	if Sum64(rotated) != Sum64(row) || Digest(rotated) == Digest(row) {
		t.Errorf("a rotated row: Sum64 %v and %v, Digest %d and %d; want equal sums, unequal digests",
			Sum64(rotated), Sum64(row), Digest(rotated), Digest(row))
	}
	negZero := float32(math.Copysign(0, -1))
	if Digest([]float32{0}) == Digest([]float32{negZero}) {
		t.Error("Digest does not tell 0 from -0")
	}
	if got := Digest(); got != 14695981039346656037 {
		t.Errorf("Digest() = %d, want FNV-1a's offset basis", got)
	}
}

// TestFold: folding pieces gives Sum64's and Digest's values over their
// concatenation, bit for bit, empty pieces included.
func TestFold(t *testing.T) {
	row := kerneltest.Noise(5, 37)
	f := NewFold()
	for _, piece := range [][]float32{row[:1], nil, row[1:20], row[20:]} {
		f.Add(piece)
	}
	if f.Sum != Sum64(row) || f.Digest != Digest(row) {
		t.Errorf("Fold of pieces = %v, %d; want Sum64 %v, Digest %d", f.Sum, f.Digest, Sum64(row), Digest(row))
	}
	if empty := NewFold(); empty.Sum != 0 || empty.Digest != Digest() {
		t.Errorf("NewFold() = %v, %d; want 0, %d", empty.Sum, empty.Digest, Digest())
	}
}

func TestCost(t *testing.T) {
	if got := Cost(1000, 130); got != 130000 {
		t.Errorf("Cost = %v, want 130000", got)
	}
}

func TestBlockOfCoversRange(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100} {
		covered := 0
		prevHi := 0
		for p := 0; p < 8; p++ {
			lo, hi := BlockOf(p, 8, n)
			if lo != prevHi {
				t.Fatalf("n=%d p=%d: block [%d,%d) not contiguous with previous end %d", n, p, lo, hi, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n {
			t.Fatalf("n=%d: blocks cover %d elements", n, covered)
		}
	}
}

// exchange sends one tracked message from process from to process to.
func exchange(pv *pvm.PVM, from, to int) {
	buf := []float32{1}
	switch pv.ID() {
	case from:
		pvm.Send(pv, to, 5, buf)
	case to:
		pvm.Recv(pv, from, 5, buf)
	}
}

// probeRuns are the five runtimes (and the spf-old interface) measuring
// probe programs at two processes. Every warm-up iteration sends what a
// timed one does, perIter messages, and every checksum sends more: only
// Iters × perIter may be counted.
var probeRuns = []struct {
	name    string
	perIter int64
	run     func(cfg core.Config) (core.Result, error)
}{
	{"seq", 0, func(cfg core.Config) (core.Result, error) {
		return RunSeq("probe", cfg, func(tm *tmk.Tmk) Program {
			return Program{
				Iterate:  func(k int) { tm.Advance(7 * sim.Millisecond) },
				Checksum: func() float64 { return 42 },
			}
		})
	}},
	// Two barriers of two messages, and one fault of two.
	{"tmk", 2*2 + 2, func(cfg core.Config) (core.Result, error) {
		return RunTmk("probe", core.Tmk, cfg, func(tm *tmk.Tmk) Program {
			r := tmk.Alloc[float32](tm, "a", 1024)
			return Program{
				Iterate: func(k int) {
					if tm.ID() == 0 {
						w := r.Write(0, 1024)
						w[k] = float32(k + 1)
					}
					tm.Barrier()
					if tm.ID() == 1 {
						r.Read(0, 1024)
					}
					tm.Barrier()
				},
				Checksum: func() float64 {
					// Process 1 wrote last: this faults.
					r.Read(0, 1024)
					return 42
				},
			}
		})
	}},
	// One fork and one join per loop; the original interface's 8(n-1).
	{"spf", 2, probeSPF(core.SPF)},
	{"spf-old", 8, probeSPF(core.SPFOld)},
	// One message per iteration; the checksum sends the other way, and
	// hangs unless process 1 takes part.
	{"xhpf", 1, func(cfg core.Config) (core.Result, error) {
		return RunXHPF("probe", core.XHPF, cfg, func(x *xhpf.XHPF) Program {
			return Program{
				Iterate:  func(k int) { exchange(x.PVM(), 0, 1) },
				Checksum: func() float64 { exchange(x.PVM(), 1, 0); return 42 },
			}
		})
	}},
	{"pvme", 1, func(cfg core.Config) (core.Result, error) {
		return RunPVM("probe", core.PVMe, cfg, func(pv *pvm.PVM) Program {
			return Program{
				Iterate:  func(k int) { exchange(pv, 0, 1) },
				Checksum: func() float64 { exchange(pv, 1, 0); return 42 },
			}
		})
	}},
}

// probeSPF measures a master program of one empty parallel loop per
// iteration, whose checksum runs one more.
func probeSPF(v core.Version) func(cfg core.Config) (core.Result, error) {
	return func(cfg core.Config) (core.Result, error) {
		return RunSPF("probe", v, cfg, func(rt *spf.Runtime) Program {
			loop := rt.RegisterLoop(func(lo, hi, stride int, args []int64) { rt.Advance(sim.Millisecond) })
			return Program{
				Iterate:  func(k int) { rt.ParallelDo(loop, 0, 2, spf.Block) },
				Checksum: func() float64 { rt.ParallelDo(loop, 0, 2, spf.Block); return 42 },
			}
		})
	}
}

// TestMeasurementProtocol holds every runtime to the protocol: warm-up
// traffic, checksum and gather traffic and the boundary synchronization
// are not counted, the checksum is process 0's, the breakdown covers
// every node, and SPF's one master window is every node's.
func TestMeasurementProtocol(t *testing.T) {
	for _, pr := range probeRuns {
		t.Run(pr.name, func(t *testing.T) {
			cfg := core.Config{Procs: 2, Iters: 3, Warmup: 2, Costs: model.SP2(), App: model.DefaultAppCosts()}
			cfg.Costs.Trace = obs.New()
			res, err := pr.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Stats.TotalMsgs(), int64(cfg.Iters)*pr.perIter; got != want {
				t.Errorf("timed msgs = %d, want %d: %d iterations of %d", got, want, cfg.Iters, pr.perIter)
			}
			if res.Checksum != 42 {
				t.Errorf("checksum = %v, want 42", res.Checksum)
			}
			if res.Time <= 0 {
				t.Error("no elapsed time measured")
			}
			if len(res.Breakdown) != res.Procs {
				t.Fatalf("%d node breakdowns for %d nodes", len(res.Breakdown), res.Procs)
			}
			for _, b := range res.Breakdown {
				if strings.HasPrefix(pr.name, "spf") && b.Total != int64(res.Time) {
					t.Errorf("node %d's window is %d ns, want the master's %d", b.Node, b.Total, res.Time)
				}
			}
		})
	}
}

// TestRunSeqChargesOnlyCompute: a sequential run has no traffic and its
// elapsed time equals the charged compute.
func TestRunSeqChargesOnlyCompute(t *testing.T) {
	cfg := core.Config{Procs: 1, Iters: 4, Warmup: 1, Costs: model.SP2(), App: model.DefaultAppCosts()}
	res, err := RunSeq("probe", cfg, func(tm *tmk.Tmk) Program {
		return Program{
			Iterate:  func(k int) { tm.Advance(7 * sim.Millisecond) },
			Checksum: func() float64 { return 42 },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 4*7*sim.Millisecond {
		t.Errorf("seq time = %v, want 28ms (warmup excluded)", res.Time)
	}
	if res.Stats.TotalMsgs() != 0 {
		t.Errorf("seq run counted %d messages", res.Stats.TotalMsgs())
	}
	if res.Checksum != 42 {
		t.Errorf("checksum = %v", res.Checksum)
	}
}
