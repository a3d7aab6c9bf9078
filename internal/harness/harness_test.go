package harness

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/store"
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
	for _, want := range append(append([]string{}, regularApps...), irregularApps...) {
		if !names[want] {
			t.Errorf("missing application %q", want)
		}
	}
}

func TestPaperTablesCoverEveryAppAndVersion(t *testing.T) {
	for _, name := range append(append([]string{}, regularApps...), irregularApps...) {
		for _, v := range figureVersions {
			if _, ok := paperMsgs[name][v]; !ok {
				t.Errorf("PaperMsgs missing %s/%s", name, v)
			}
			if _, ok := paperKB[name][v]; !ok {
				t.Errorf("PaperKB missing %s/%s", name, v)
			}
		}
		if _, ok := paperSeqSeconds[name]; !ok {
			t.Errorf("PaperSeqSeconds missing %s", name)
		}
	}
}

// small is one run at small scale.
func small(app string, v core.Version, procs int, p proto.Name) exp.Spec {
	return exp.Spec{App: app, Version: v, Procs: procs, Scale: core.SmallScale, Protocol: p}.Normalize()
}

// underPolicy is s under the home-based protocol with home policy pol.
func underPolicy(s exp.Spec, pol proto.PolicyName) exp.Spec {
	s.Protocol, s.HomePolicy = proto.HomeLRC, pol
	return s.Normalize()
}

// smallBase is the base spec of dsmrun -tables at -scale small
// -procs 4.
var smallBase = exp.Spec{Procs: 4, Scale: core.SmallScale, Protocol: proto.HomelessLRC}

// TestAllExperimentsSmall drives the paper's tables end to end at the
// small scale through one engine (their bytes are
// TestTablesMatchGolden's).
func TestAllExperimentsSmall(t *testing.T) {
	tabs, err := Select("paper")
	if err != nil || len(tabs) != 7 {
		t.Fatalf("paper selects %d tables (%v), want 7", len(tabs), err)
	}
	e := exp.New()
	for _, tab := range tabs {
		if err := tab.Print(io.Discard, e, smallBase); err != nil {
			t.Fatalf("%s: %v", tab.Name, err)
		}
	}
}

// printTables prints every table the way dsmrun -tables does —
// each followed by a blank line, the time-attribution table through an
// observing engine — and counts the runs each table started.
func printTables(t *testing.T, st *store.Store) (string, map[string]int64) {
	t.Helper()
	eng, observed := exp.New(), exp.New()
	observed.Observe = true
	eng.Store, observed.Store = st, st
	var out strings.Builder
	started := map[string]int64{}
	for _, tab := range tables {
		e := eng
		if tab.Observe {
			e = observed
		}
		before := e.HostStats().RunsStarted
		if err := tab.Print(&out, e, smallBase); err != nil {
			t.Fatalf("%s: %v", tab.Name, err)
		}
		out.WriteString("\n")
		started[tab.Name] = e.HostStats().RunsStarted - before
	}
	return out.String(), started
}

// TestTablesMatchGolden pins every table's bytes: the output of
// `dsmrun -tables <every table> -scale small -procs 4`, kept in
// testdata/experiments-small.txt. The tables render it from a cold
// engine and again from the store that cold pass wrote, where no table
// starts a run.
func TestTablesMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/experiments-small.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		st, err := store.Open(dir, exp.StoreOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		out, started := printTables(t, st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if out != string(golden) {
			t.Errorf("%s: tables differ from testdata/experiments-small.txt:\n%s", pass, out)
		}
		if pass == "cold" {
			continue
		}
		for _, tab := range tables {
			if n := started[tab.Name]; n != 0 {
				t.Errorf("warm %s started %d runs", tab.Name, n)
			}
		}
	}
}

// TestSelect: "paper" stands for the paper tables in tables order,
// other names keep the order given, and an unknown name is refused
// with the list of every name.
func TestSelect(t *testing.T) {
	every := "table1, figure1, table2, figure2, table3, handopt, interface, scalability, protocols, compiler, contention, migration, breakdown"
	for _, c := range []struct {
		list string
		want string // the selected names, or the error
	}{
		{"paper", "table1 figure1 table2 figure2 table3 handopt interface"},
		{"breakdown,table1,protocols", "breakdown table1 protocols"},
		{"migration, paper,migration", "migration table1 figure1 table2 figure2 table3 handopt interface migration"},
		{"nope", `unknown experiment "nope" (have ` + every + ")"},
		{"scalability,nope", `unknown experiment "nope" (have ` + every + ")"},
		{"", `unknown experiment "" (have ` + every + ")"},
	} {
		tabs, err := Select(c.list)
		var got string
		if err != nil {
			got = err.Error()
		} else {
			names := make([]string, len(tabs))
			for i, tab := range tabs {
				names[i] = tab.Name
			}
			got = strings.Join(names, " ")
		}
		if got != c.want {
			t.Errorf("Select(%q) = %s, want %s", c.list, got, c.want)
		}
	}
}

// TestWarmBreakdownStartsNoRuns: the time-attribution table reads
// observed records through the store like every other table, so a
// second pass over the store renders it without simulating (held with
// every table's by TestTablesMatchGolden's warm pass); an engine that
// does not observe cannot print it.
func TestWarmBreakdownStartsNoRuns(t *testing.T) {
	if !breakdown.Observe {
		t.Fatal("the breakdown table does not ask for an observing engine")
	}
	if err := breakdown.Print(io.Discard, exp.New(), smallBase); err == nil {
		t.Error("breakdown printed through an engine that does not observe")
	}
}

// TestTablesRefuseADivergentChecksum: the tables that vary what a
// result must not depend on refuse their golden records once one
// checksum disagrees, with exp.Agree's message, and print nothing (the
// unmodified records render: TestTablesRenderFromGolden).
func TestTablesRefuseADivergentChecksum(t *testing.T) {
	for _, c := range []struct {
		tab  Table
		flip int // the record whose checksum moves away from the first's
	}{{protocols, 1}, {contention, len(contentionColumns("", ""))}, {compiler, 1}, {migration, 1}} {
		recs := goldenRecs(t, c.tab.Specs(smallBase))
		recs[c.flip].Checksum++
		want := fmt.Sprintf("%s: checksum %v disagrees with %v of %s (relative tolerance 0)",
			recs[c.flip].Key(), recs[c.flip].Checksum, recs[0].Checksum, recs[0].Key())
		var sb strings.Builder
		if err := c.tab.render(&sb, smallBase, recs); err == nil || err.Error() != want || sb.Len() != 0 {
			t.Errorf("%s: error = %v, want %q, and nothing rendered:\n%s", c.tab.Name, err, want, sb.String())
		}
	}
}

// wrongApp is an application whose version bad answers wrong(checksum).
type wrongApp struct {
	core.App
	bad   core.Version
	wrong func(float64) float64
}

func (a wrongApp) Run(v core.Version, cfg core.Config) (core.Result, error) {
	res, err := a.App.Run(v, cfg)
	if v == a.bad {
		res.Checksum = a.wrong(res.Checksum)
	}
	return res, err
}

// wrongEngine is an engine on which app's version bad answers wrong.
func wrongEngine(app string, bad core.Version, wrong func(float64) float64) *exp.Engine {
	e := exp.New()
	e.Lookup = func(name string) (core.App, error) {
		a, err := exp.AppByName(name)
		if name == app {
			a = wrongApp{a, bad, wrong}
		}
		return a, err
	}
	return e
}

// TestTablesRefuseANonFiniteResult: a run whose checksum is not a number
// is the engine's run error (exp.Agree), so the table it belongs to
// returns that error and renders nothing — it used to print a speedup
// from the run's time — while a table that does not need the run still
// renders.
func TestTablesRefuseANonFiniteResult(t *testing.T) {
	e := wrongEngine("MGS", core.TmkOpt, func(float64) float64 { return math.NaN() })
	var sb strings.Builder
	err := handOpt.Print(&sb, e, smallBase)
	if err == nil || err.Error() != "MGS/tmk-opt: non-finite checksum" {
		t.Errorf("handOpt error = %v, want the run's non-finite checksum", err)
	}
	if sb.Len() != 0 {
		t.Errorf("handOpt rendered from a failed run:\n%s", sb.String())
	}
	if err := figure1.Print(&sb, e, smallBase); err != nil || !strings.Contains(sb.String(), "MGS") {
		t.Errorf("Figure 1, which has no tmk-opt cell, failed: %v\n%s", err, sb.String())
	}
}

// TestTablesRefuseAnUlp: a generated version one ulp off its hand-coded
// one refuses the compiler table with exp.Agree's message.
func TestTablesRefuseAnUlp(t *testing.T) {
	e := wrongEngine("Jacobi", core.SPFGen, func(c float64) float64 { return math.Nextafter(c, math.Inf(1)) })
	var sb strings.Builder
	err := compiler.Print(&sb, e, smallBase)
	want := "app=Jacobi|version=spf-gen|procs=4|scale=small|protocol=lrc|contention=0|fifo=0: checksum 461.05468750000006 disagrees with 461.0546875 of app=Jacobi|version=spf|"
	if err == nil || !strings.HasPrefix(err.Error(), want) || sb.Len() != 0 {
		t.Errorf("Compiler error = %v, want %q…, and nothing rendered:\n%s", err, want, sb.String())
	}
}

// TestMidScaleRankingsHold runs the headline shape checks at mid scale:
// message passing ahead on the regular applications, DSM far ahead of
// XHPF on the irregular ones.
func TestMidScaleRankingsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("mid scale takes tens of seconds")
	}
	e := exp.New()
	speedup := func(name string, v core.Version) float64 {
		seq, err := e.Run(exp.Spec{App: name, Version: core.Seq, Procs: 1, Scale: core.MidScale})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(exp.Spec{App: name, Version: v, Procs: 8, Scale: core.MidScale})
		if err != nil {
			t.Fatal(err)
		}
		return res.Speedup(seq.Time)
	}
	for _, name := range regularApps {
		if spf, pvme := speedup(name, core.SPF), speedup(name, core.PVMe); pvme <= spf {
			t.Errorf("%s: PVMe %.2f should beat SPF %.2f (regular apps)", name, pvme, spf)
		}
	}
	for _, name := range irregularApps {
		if spf, xhpf := speedup(name, core.SPF), speedup(name, core.XHPF); spf <= xhpf {
			t.Errorf("%s: SPF %.2f should beat XHPF %.2f (irregular apps)", name, spf, xhpf)
		}
	}
}
