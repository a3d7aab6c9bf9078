package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/stats"
)

// Golden home-policy traffic table: the exact timed-region message and
// byte totals of the representative DSM version under the home-based
// protocol for each home policy, at 4 processors, small scale. At this
// scale MGS packs sixteen cyclic vectors into every page and Jacobi's
// halo pages carry two writers, so the adaptive guards must hold every
// page still (adaptive equals static bit-for-bit) while first-touch
// reassigns pages to their initializing writers. Any policy change that
// silently shifts traffic fails here; deliberate changes regenerate the
// table (run each combination and copy TotalMsgs/TotalBytes).
var policyTrafficGolden = []struct {
	app     string
	version core.Version
	policy  proto.PolicyName
	msgs    int64
	bytes   int64
}{
	{"MGS", core.Version("tmk"), proto.StaticPolicy, 2226, 2460156},
	{"MGS", core.Version("tmk"), proto.FirstTouchPolicy, 1702, 2451652},
	{"MGS", core.Version("tmk"), proto.AdaptivePolicy, 2226, 2460156},
	{"Jacobi", core.Version("tmk"), proto.StaticPolicy, 96, 55680},
	{"Jacobi", core.Version("tmk"), proto.FirstTouchPolicy, 112, 98680},
	{"Jacobi", core.Version("tmk"), proto.AdaptivePolicy, 96, 55680},
}

// TestGoldenTrafficHomePolicies pins the hlrc traffic under every home
// policy, and checks the static rows against the main golden table: the
// policy API must leave the pre-policy protocol untouched.
func TestGoldenTrafficHomePolicies(t *testing.T) {
	r := NewRunner(4, core.SmallScale)
	for _, g := range policyTrafficGolden {
		a, err := exp.AppByName(g.app)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.policySub(4, g.policy).Run(a, g.version)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", g.app, g.version, g.policy, err)
		}
		if res.Stats.TotalMsgs() != g.msgs || res.Stats.TotalBytes() != g.bytes {
			t.Errorf("%s/%s/%s traffic drifted: got %d msgs / %d bytes, golden %d / %d",
				g.app, g.version, g.policy, res.Stats.TotalMsgs(), res.Stats.TotalBytes(), g.msgs, g.bytes)
		}
		if g.policy != proto.StaticPolicy {
			continue
		}
		for _, m := range trafficGolden {
			if m.app == g.app && m.version == g.version && m.protocol == proto.HomeLRC {
				if m.msgs != g.msgs || m.bytes != g.bytes {
					t.Errorf("%s/%s static policy golden (%d/%d) disagrees with main hlrc golden (%d/%d)",
						g.app, g.version, g.msgs, g.bytes, m.msgs, m.bytes)
				}
			}
		}
	}
}

// TestSingleNodeNeverMigrates: at one node every page is self-homed;
// all three policies must produce byte-identical runs with zero
// migration activity.
func TestSingleNodeNeverMigrates(t *testing.T) {
	for _, name := range MigrationApps {
		a, err := exp.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v := DSMVersionOf(a)
		r := NewRunner(1, core.SmallScale)
		static, err := r.policySub(1, proto.StaticPolicy).Run(a, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []proto.PolicyName{proto.FirstTouchPolicy, proto.AdaptivePolicy} {
			res, err := r.policySub(1, pol).Run(a, v)
			if err != nil {
				t.Fatalf("%s/%s %s: %v", name, v, pol, err)
			}
			if res.Migrations != 0 || res.StaleForwards != 0 || res.RedirectedFlushBytes != 0 {
				t.Errorf("%s/%s %s at 1 node: activity (%d, %d, %d), want none",
					name, v, pol, res.Migrations, res.StaleForwards, res.RedirectedFlushBytes)
			}
			if res.Checksum != static.Checksum || res.Time != static.Time ||
				res.Stats.TotalMsgs() != static.Stats.TotalMsgs() ||
				res.Stats.TotalBytes() != static.Stats.TotalBytes() {
				t.Errorf("%s/%s %s at 1 node differs from static: (%v, %v, %d, %d) vs (%v, %v, %d, %d)",
					name, v, pol, res.Checksum, res.Time, res.Stats.TotalMsgs(), res.Stats.TotalBytes(),
					static.Checksum, static.Time, static.Stats.TotalMsgs(), static.Stats.TotalBytes())
			}
		}
	}
}

// TestMigrationExperiment renders the home-policy sweep end to end at
// small scale: the experiment itself verifies checksum equivalence
// across policies and the single-node no-migration invariant for every
// row, so this is the cheap whole-grid regression.
func TestMigrationExperiment(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(8, core.SmallScale)
	if err := Migration(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range MigrationApps {
		if !strings.Contains(out, name) {
			t.Errorf("migration table is missing %s:\n%s", name, out)
		}
	}
}

// TestAdaptiveReducesMGSFlushTraffic is the ROADMAP's headline
// measurement: at mid scale one MGS vector is one page, every page has
// a single cyclic writer fighting the block-wise static homes, and the
// adaptive policy must recover the bulk of the flush traffic at 8
// nodes. Mid scale takes a few seconds, so -short skips it.
func TestAdaptiveReducesMGSFlushTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale MGS comparison in -short mode")
	}
	a, err := exp.AppByName("MGS")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(8, core.MidScale)
	static, err := r.policySub(8, proto.StaticPolicy).Run(a, core.Tmk)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := r.policySub(8, proto.AdaptivePolicy).Run(a, core.Tmk)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Checksum != static.Checksum {
		t.Fatalf("adaptive changed the answer: %g != %g", adaptive.Checksum, static.Checksum)
	}
	sf, af := static.Stats.BytesOf(stats.KindDiff), adaptive.Stats.BytesOf(stats.KindDiff)
	if af >= sf/2 {
		t.Errorf("adaptive flush bytes %d not under half of static's %d", af, sf)
	}
	if adaptive.Migrations == 0 {
		t.Errorf("adaptive migrated no pages on mid-scale MGS")
	}
	if adaptive.Time >= static.Time {
		t.Errorf("adaptive time %v not under static's %v", adaptive.Time, static.Time)
	}
}
