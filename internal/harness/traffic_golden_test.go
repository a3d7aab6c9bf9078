package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// Golden traffic table: the exact timed-region message and byte totals
// of every (application, version, protocol) at 4 processors, small
// scale. Message counts and data volumes are the paper's primary
// protocol-behavior observables (Tables 2 and 3), and they fall out of
// the real protocol implementations rather than the cost calibration —
// so any protocol, loopc or runtime change that silently alters traffic
// must fail here loudly, and deliberate changes must regenerate the
// table (run the generator snippet in the test failure's footer).
//
// The contention model never changes the message-passing versions'
// numbers (fixed schedules — it delays their messages but sends
// exactly the same ones) and never changes any answer; the DSM
// runtimes may re-batch a protocol fetch or two when the server's
// interleaving shifts (asserted by
// TestGoldenTrafficContentionInvariant below).

type trafficGold struct {
	app      string
	version  core.Version
	protocol proto.Name
	msgs     int64
	bytes    int64
}

var trafficGolden = []trafficGold{
	{"Jacobi", core.Version("spf"), "lrc", 144, 27776},
	{"Jacobi", core.Version("spf"), "hlrc", 144, 109792},
	{"Jacobi", core.Version("tmk"), "lrc", 96, 13512},
	{"Jacobi", core.Version("tmk"), "hlrc", 96, 55680},
	{"Jacobi", core.Version("xhpf"), "", 72, 8640},
	{"Jacobi", core.Version("pvme"), "", 24, 6912},
	{"Jacobi", core.Version("spf-opt"), "lrc", 144, 27776},
	{"Jacobi", core.Version("spf-opt"), "hlrc", 144, 109792},
	{"Jacobi", core.Version("spf-old"), "lrc", 288, 35360},
	{"Jacobi", core.Version("spf-old"), "hlrc", 288, 314496},
	{"Jacobi", core.Version("tmk-push"), "lrc", 96, 15704},
	{"Jacobi", core.Version("tmk-push"), "hlrc", 96, 55680},
	{"Jacobi", core.Version("spf-gen"), "lrc", 144, 27776},
	{"Jacobi", core.Version("spf-gen"), "hlrc", 144, 109792},
	{"Jacobi", core.Version("xhpf-gen"), "", 72, 8640},
	{"Shallow", core.Version("spf"), "lrc", 432, 496056},
	{"Shallow", core.Version("spf"), "hlrc", 360, 500704},
	{"Shallow", core.Version("tmk"), "lrc", 296, 482696},
	{"Shallow", core.Version("tmk"), "hlrc", 296, 484064},
	{"Shallow", core.Version("xhpf"), "", 184, 34848},
	{"Shallow", core.Version("pvme"), "", 112, 32256},
	{"Shallow", core.Version("spf-opt"), "lrc", 384, 488760},
	{"Shallow", core.Version("spf-opt"), "hlrc", 312, 493408},
	{"MGS", core.Version("spf"), "lrc", 4076, 1913104},
	{"MGS", core.Version("spf"), "hlrc", 2262, 2497680},
	{"MGS", core.Version("tmk"), "lrc", 3942, 1848600},
	{"MGS", core.Version("tmk"), "hlrc", 2226, 2460156},
	{"MGS", core.Version("xhpf"), "", 960, 82944},
	{"MGS", core.Version("pvme"), "", 192, 55296},
	{"MGS", core.Version("tmk-opt"), "lrc", 216, 108960},
	{"MGS", core.Version("tmk-opt"), "hlrc", 444, 242028},
	{"3-D FFT", core.Version("spf"), "lrc", 304, 219072},
	{"3-D FFT", core.Version("spf"), "hlrc", 256, 265536},
	{"3-D FFT", core.Version("tmk"), "lrc", 188, 209272},
	{"3-D FFT", core.Version("tmk"), "hlrc", 164, 232224},
	{"3-D FFT", core.Version("xhpf"), "", 276, 58464},
	{"3-D FFT", core.Version("pvme"), "", 30, 50208},
	{"3-D FFT", core.Version("spf-opt"), "lrc", 256, 217056},
	{"3-D FFT", core.Version("spf-opt"), "hlrc", 208, 263520},
	{"IGrid", core.Version("spf"), "lrc", 227, 21376},
	{"IGrid", core.Version("spf"), "hlrc", 227, 178396},
	{"IGrid", core.Version("tmk"), "lrc", 117, 10248},
	{"IGrid", core.Version("tmk"), "hlrc", 113, 86496},
	{"IGrid", core.Version("xhpf"), "", 108, 212520},
	{"IGrid", core.Version("pvme"), "", 39, 8520},
	{"NBF", core.Version("spf"), "lrc", 528, 287568},
	{"NBF", core.Version("spf"), "hlrc", 264, 427568},
	{"NBF", core.Version("tmk"), "lrc", 432, 231888},
	{"NBF", core.Version("tmk"), "hlrc", 240, 363344},
	{"NBF", core.Version("xhpf"), "", 240, 351936},
	{"NBF", core.Version("pvme"), "", 60, 109440},
	{"RB-SOR", core.Version("spf"), "lrc", 128, 37036},
	{"RB-SOR", core.Version("spf"), "hlrc", 120, 59504},
	{"RB-SOR", core.Version("tmk"), "lrc", 128, 36252},
	{"RB-SOR", core.Version("tmk"), "hlrc", 120, 58800},
	{"RB-SOR", core.Version("xhpf"), "", 96, 15552},
	{"RB-SOR", core.Version("pvme"), "", 48, 13824},
	{"RB-SOR", core.Version("spf-gen"), "lrc", 128, 37036},
	{"RB-SOR", core.Version("spf-gen"), "hlrc", 120, 59504},
	{"RB-SOR", core.Version("xhpf-gen"), "", 96, 15552},
}

// TestGoldenTrafficCoversEveryVersion guards the table itself: every
// (app, version, protocol) combination the harness can run at 4 procs
// must have a golden row, so adding an app or version without pinning
// its traffic fails here.
func TestGoldenTrafficCoversEveryVersion(t *testing.T) {
	have := map[trafficGold]bool{}
	for _, g := range trafficGolden {
		have[trafficGold{app: g.app, version: g.version, protocol: g.protocol}] = true
	}
	for _, a := range exp.Apps() {
		dsm := map[core.Version]bool{}
		for _, v := range DSMVersions(a) {
			dsm[v] = true
		}
		for _, v := range a.Versions() {
			if v == core.Seq {
				continue
			}
			prots := []proto.Name{""}
			if dsm[v] {
				prots = proto.Names()
			}
			for _, p := range prots {
				if !have[trafficGold{app: a.Name(), version: v, protocol: p}] {
					t.Errorf("no golden traffic row for %s/%s/%s — run the generator in traffic_golden_test.go and add one", a.Name(), v, p)
				}
			}
		}
	}
}

// TestGoldenTraffic pins the exact msgs/bytes of every combination.
func TestGoldenTraffic(t *testing.T) {
	e := exp.New()
	for _, g := range trafficGolden {
		res, err := e.Run(small(g.app, g.version, 4, g.protocol))
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", g.app, g.version, g.protocol, err)
		}
		if res.Stats.TotalMsgs() != g.msgs || res.Stats.TotalBytes() != g.bytes {
			t.Errorf("%s/%s/%s traffic drifted: got %d msgs / %d bytes, golden %d / %d\n"+
				"(if the change is deliberate, regenerate: run each combination at 4 procs, "+
				"core.SmallScale, and copy TotalMsgs/TotalBytes into trafficGolden)",
				g.app, g.version, g.protocol,
				res.Stats.TotalMsgs(), res.Stats.TotalBytes(), g.msgs, g.bytes)
		}
	}
}

// TestGoldenTrafficContentionInvariant re-runs a representative subset
// under the harshest contention point. Message-passing versions have a
// fixed communication schedule, so their traffic must match the golden
// table exactly — queueing delays their messages but never adds, drops
// or resizes them. The DSM runtimes are timing-adaptive (the request
// server's interleaving with the application shifts under contention,
// so the protocol may batch a fetch or two differently); for those the
// answer must still be bit-identical to the uncontended run, and the
// traffic may drift only marginally from golden.
func TestGoldenTrafficContentionInvariant(t *testing.T) {
	e := exp.New()
	for _, g := range trafficGolden {
		switch g.app {
		case "Jacobi", "IGrid", "NBF":
		default:
			continue
		}
		s := small(g.app, g.version, 4, g.protocol)
		res, err := e.Run(contended(s, 1))
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", g.app, g.version, g.protocol, err)
		}
		base, err := e.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checksum != base.Checksum {
			t.Errorf("%s/%s/%s: contention changed the answer: %g != %g",
				g.app, g.version, g.protocol, res.Checksum, base.Checksum)
		}
		if g.protocol == "" {
			// Fixed message-passing schedule: exact.
			if res.Stats.TotalMsgs() != g.msgs || res.Stats.TotalBytes() != g.bytes {
				t.Errorf("%s/%s: contention changed message-passing traffic: got %d msgs / %d bytes, golden %d / %d",
					g.app, g.version, res.Stats.TotalMsgs(), res.Stats.TotalBytes(), g.msgs, g.bytes)
			}
			continue
		}
		// DSM: allow marginal protocol re-batching, nothing more.
		if drift(res.Stats.TotalMsgs(), g.msgs) > 0.05 || drift(res.Stats.TotalBytes(), g.bytes) > 0.05 {
			t.Errorf("%s/%s/%s: contention shifted DSM traffic beyond re-batching: got %d msgs / %d bytes, golden %d / %d",
				g.app, g.version, g.protocol,
				res.Stats.TotalMsgs(), res.Stats.TotalBytes(), g.msgs, g.bytes)
		}
	}
}

// drift returns |a-b| as a fraction of b.
func drift(a, b int64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(b)
}
