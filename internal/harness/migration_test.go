package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// TestGoldenTrafficHomePolicies: at small scale and 4 processors MGS
// packs sixteen cyclic vectors into every page and Jacobi's halo pages
// carry two writers, so the adaptive guards must hold every page still
// — adaptive's pinned traffic is static's — while first-touch
// reassigns pages to their initializing writers.
func TestGoldenTrafficHomePolicies(t *testing.T) {
	for _, app := range []string{"MGS", "Jacobi"} {
		s := small(app, core.Tmk, 4, "")
		static := golden(t, underPolicy(s, proto.StaticPolicy))
		adaptive := golden(t, underPolicy(s, proto.AdaptivePolicy))
		first := golden(t, underPolicy(s, proto.FirstTouchPolicy))
		if adaptive.Msgs != static.Msgs || adaptive.Bytes != static.Bytes {
			t.Errorf("%s: adaptive moved traffic: %d msgs / %d bytes, static %d / %d", app, adaptive.Msgs, adaptive.Bytes, static.Msgs, static.Bytes)
		}
		if first.Msgs == static.Msgs && first.Bytes == static.Bytes {
			t.Errorf("%s: first-touch reassigned no page: %d msgs / %d bytes, as static", app, first.Msgs, first.Bytes)
		}
	}
}

// TestSingleNodeNeverMigrates: at one node every page is self-homed;
// every policy's golden record must be static's — time, traffic and
// checksum — with zero migration activity.
func TestSingleNodeNeverMigrates(t *testing.T) {
	for _, name := range migrationApps {
		s := underPolicy(small(name, dsmVersionOf(mustApp(name)), 1, ""), proto.StaticPolicy)
		static := golden(t, s)
		for _, pol := range proto.PolicyNames() {
			rec := golden(t, underPolicy(s, pol))
			if rec.Migrations != 0 || rec.StaleForwards != 0 || rec.RedirectedFlushBytes != 0 {
				t.Errorf("%s at 1 node: activity (%d, %d, %d), want none", rec.Key(), rec.Migrations, rec.StaleForwards, rec.RedirectedFlushBytes)
			}
			if err := exp.Agree(rec, static); err != nil || rec.TimeNanos != static.TimeNanos || rec.Msgs != static.Msgs || rec.Bytes != static.Bytes {
				t.Errorf("%s at 1 node differs from static: %+v vs %+v (%v)", rec.Key(), rec, static, err)
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
	if err := migration.Print(&buf, exp.New(), smallBase); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range migrationApps {
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
	e, s := exp.New(), exp.Spec{App: "MGS", Version: core.Tmk, Procs: 8, Scale: core.MidScale}
	static := runRecord(t, e, underPolicy(s, proto.StaticPolicy))
	adaptive := runRecord(t, e, underPolicy(s, proto.AdaptivePolicy))
	if err := exp.Agree(adaptive, static); err != nil {
		t.Fatal(err)
	}
	if adaptive.DiffBytes >= static.DiffBytes/2 {
		t.Errorf("adaptive flush bytes %d not under half of static's %d", adaptive.DiffBytes, static.DiffBytes)
	}
	if adaptive.Migrations == 0 {
		t.Errorf("adaptive migrated no pages on mid-scale MGS")
	}
	if adaptive.TimeNanos >= static.TimeNanos {
		t.Errorf("adaptive time %d ns not under static's %d", adaptive.TimeNanos, static.TimeNanos)
	}
}
