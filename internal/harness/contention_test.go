package harness

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// contended is s at contention point ways (see ContentionSweep).
func contended(s exp.Spec, ways int) exp.Spec {
	s.Contention = ways
	return s
}

// TestContentionOffMatchesBaseline: a sweep point with the contention
// model disabled must reproduce the plain runner's results bit for bit
// — time, traffic and checksum — with no queueing delay recorded.
func TestContentionOffMatchesBaseline(t *testing.T) {
	cases := []struct {
		app  string
		v    core.Version
		prot proto.Name
	}{
		{"Jacobi", core.Tmk, proto.HomelessLRC},
		{"Jacobi", core.Tmk, proto.HomeLRC},
		{"IGrid", core.XHPF, ""},
		{"NBF", core.PVMe, ""},
	}
	for _, c := range cases {
		base, err := exp.New().Run(small(c.app, c.v, 4, c.prot))
		if err != nil {
			t.Fatal(err)
		}
		off, err := exp.New().Run(contended(small(c.app, c.v, 4, c.prot), 0))
		if err != nil {
			t.Fatal(err)
		}
		if off.Time != base.Time || off.Checksum != base.Checksum ||
			off.Stats.TotalMsgs() != base.Stats.TotalMsgs() ||
			off.Stats.TotalBytes() != base.Stats.TotalBytes() {
			t.Errorf("%s/%s/%s: contention-off run diverged: (%v,%g,%d,%d) vs baseline (%v,%g,%d,%d)",
				c.app, c.v, c.prot,
				off.Time, off.Checksum, off.Stats.TotalMsgs(), off.Stats.TotalBytes(),
				base.Time, base.Checksum, base.Stats.TotalMsgs(), base.Stats.TotalBytes())
		}
		if off.QueueTime() != 0 {
			t.Errorf("%s/%s: queueing delay %v recorded with contention off", c.app, c.v, off.QueueTime())
		}
	}
}

// TestContentionSuperLinearOnIrregularBroadcasts encodes the
// experiment's headline: under serial NICs, XHPF's end-of-loop
// broadcast storms on the irregular applications accumulate queueing
// delay super-linearly in the node count (each of n nodes serializes
// n-1 copies through one adapter), while the regular application's
// pairwise halo exchanges — spread over disjoint links — barely queue.
func TestContentionSuperLinearOnIrregularBroadcasts(t *testing.T) {
	e := exp.New()
	const nicOnly = -1
	qd := func(app string, v core.Version, procs int) (float64, float64) {
		res, err := e.Run(contended(small(app, v, procs, ""), nicOnly))
		if err != nil {
			t.Fatal(err)
		}
		return res.QueueTime().Seconds(), res.Time.Seconds()
	}
	for _, app := range []string{"IGrid", "NBF"} {
		q4, _ := qd(app, core.XHPF, 4)
		q8, _ := qd(app, core.XHPF, 8)
		if q4 <= 0 || q8 <= 0 {
			t.Fatalf("%s/xhpf: no queueing delay under serial NICs (q4=%g q8=%g)", app, q4, q8)
		}
		// Linear growth in nodes would double the delay from 4 to 8;
		// demand clearly more than that.
		if q8 < 4*q4 {
			t.Errorf("%s/xhpf queueing delay not super-linear: %gs at 4 nodes -> %gs at 8 nodes (%.1fx)",
				app, q4, q8, q8/q4)
		}
	}
	// Jacobi's queueing-delay share of execution time must sit an order
	// of magnitude below the irregular applications'.
	jq, jt := qd("Jacobi", core.XHPF, 8)
	iq, it := qd("IGrid", core.XHPF, 8)
	if jq/jt*10 > iq/it {
		t.Errorf("Jacobi xhpf queue share %.3f not << IGrid's %.3f", jq/jt, iq/it)
	}
}

// TestContentionExperimentRuns exercises the full table writer (and its
// cross-sweep checksum verification) at small scale.
func TestContentionExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is not a -short test")
	}
	base := smallBase
	base.Procs = 8
	if err := Contention.Print(io.Discard, exp.New(), base); err != nil {
		t.Fatal(err)
	}
}
