package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

func TestAppsComplete(t *testing.T) {
	apps := exp.PaperApps()
	if len(apps) != 6 {
		t.Fatalf("have %d applications, want 6", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name()] = true
	}
	for _, want := range append(append([]string{}, RegularApps...), IrregularApps...) {
		if !names[want] {
			t.Errorf("missing application %q", want)
		}
	}
}

func TestPaperTablesCoverEveryAppAndVersion(t *testing.T) {
	for _, name := range append(append([]string{}, RegularApps...), IrregularApps...) {
		for _, v := range FigureVersions {
			if _, ok := PaperMsgs[name][v]; !ok {
				t.Errorf("PaperMsgs missing %s/%s", name, v)
			}
			if _, ok := PaperKB[name][v]; !ok {
				t.Errorf("PaperKB missing %s/%s", name, v)
			}
		}
		if _, ok := PaperSeqSeconds[name]; !ok {
			t.Errorf("PaperSeqSeconds missing %s", name)
		}
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(2, core.SmallScale)
	a, _ := exp.AppByName("Jacobi")
	r1, err := r.Run(a, core.Seq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.Run(a, core.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Error("cache returned a different result")
	}
	if len(r.CachedKeys()) != 1 {
		t.Errorf("cache has %d keys, want 1", len(r.CachedKeys()))
	}
}

// TestAllExperimentsSmall drives every experiment end to end at the
// small scale, checking the output mentions each application.
func TestAllExperimentsSmall(t *testing.T) {
	r := NewRunner(4, core.SmallScale)
	var sb strings.Builder
	if err := All(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"Jacobi", "Shallow", "MGS", "3-D FFT", "IGrid", "NBF",
		"Table 1", "Figure 1", "Table 2", "Figure 2", "Table 3", "Section 5", "Section 2.3"} {
		if !strings.Contains(out, name) {
			t.Errorf("experiment output missing %q", name)
		}
	}
}

// nanApp is an application one of whose versions returns a NaN checksum.
type nanApp struct {
	core.App
	bad core.Version
}

func (a nanApp) Run(v core.Version, cfg core.Config) (core.Result, error) {
	res, err := a.App.Run(v, cfg)
	if v == a.bad {
		res.Checksum = math.NaN()
	}
	return res, err
}

// TestTablesRefuseANonFiniteResult: a run whose checksum is not a number
// is the engine's run error, so the table it belongs to returns that
// error and renders nothing — it used to print a speedup from the run's
// time — while a table that does not need the run still renders.
func TestTablesRefuseANonFiniteResult(t *testing.T) {
	r := NewRunner(4, core.SmallScale)
	r.Engine().Lookup = func(name string) (core.App, error) {
		a, err := exp.AppByName(name)
		if name == "MGS" {
			a = nanApp{a, core.TmkOpt}
		}
		return a, err
	}
	var sb strings.Builder
	err := HandOpt(&sb, r)
	if err == nil || err.Error() != "MGS/tmk-opt: non-finite checksum" {
		t.Errorf("HandOpt error = %v, want the run's non-finite checksum", err)
	}
	if sb.Len() != 0 {
		t.Errorf("HandOpt rendered from a failed run:\n%s", sb.String())
	}
	if err := Figure1(&sb, r); err != nil || !strings.Contains(sb.String(), "MGS") {
		t.Errorf("Figure 1, which has no tmk-opt cell, failed: %v\n%s", err, sb.String())
	}
}

// TestMidScaleRankingsHold runs the headline shape checks at mid scale:
// message passing ahead on the regular applications, DSM far ahead of
// XHPF on the irregular ones.
func TestMidScaleRankingsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("mid scale takes tens of seconds")
	}
	r := NewRunner(8, core.MidScale)
	for _, name := range RegularApps {
		a, _ := exp.AppByName(name)
		spf, err := r.Speedup(a, core.SPF)
		if err != nil {
			t.Fatal(err)
		}
		pvme, err := r.Speedup(a, core.PVMe)
		if err != nil {
			t.Fatal(err)
		}
		if pvme <= spf {
			t.Errorf("%s: PVMe %.2f should beat SPF %.2f (regular apps)", name, pvme, spf)
		}
	}
	for _, name := range IrregularApps {
		a, _ := exp.AppByName(name)
		spf, err := r.Speedup(a, core.SPF)
		if err != nil {
			t.Fatal(err)
		}
		xhpf, err := r.Speedup(a, core.XHPF)
		if err != nil {
			t.Fatal(err)
		}
		if spf <= xhpf {
			t.Errorf("%s: SPF %.2f should beat XHPF %.2f (irregular apps)", name, spf, xhpf)
		}
	}
}
