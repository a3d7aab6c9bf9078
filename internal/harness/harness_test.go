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
// small scale, checking the output mentions each application.
func TestAllExperimentsSmall(t *testing.T) {
	e := exp.New()
	var sb strings.Builder
	for _, tab := range Tables {
		if !tab.Paper {
			continue
		}
		if err := tab.Print(&sb, e, smallBase); err != nil {
			t.Fatalf("%s: %v", tab.Name, err)
		}
	}
	out := sb.String()
	for _, name := range []string{"Jacobi", "Shallow", "MGS", "3-D FFT", "IGrid", "NBF",
		"Table 1", "Figure 1", "Table 2", "Figure 2", "Table 3", "Section 5", "Section 2.3"} {
		if !strings.Contains(out, name) {
			t.Errorf("experiment output missing %q", name)
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
	for _, tab := range Tables {
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
// engine and again from the store that cold pass wrote, where every
// table but migration — whose flush column no record carries — starts
// no run at all.
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
		for _, tab := range Tables {
			if n := started[tab.Name]; (n != 0) != (tab.Name == "migration") {
				t.Errorf("warm %s started %d runs", tab.Name, n)
			}
		}
	}
}

// TestSelect: "paper" stands for the Paper tables in Tables order,
// other names keep the order given, and an unknown name is refused
// with the list of every name.
func TestSelect(t *testing.T) {
	every := "table1, figure1, table2, figure2, table3, handopt, interface, scalability, protocols, compiler, contention, migration, gendiff, breakdown"
	for _, c := range []struct {
		list string
		want string // the selected names, or the error
	}{
		{"paper", "table1 figure1 table2 figure2 table3 handopt interface"},
		{"breakdown,table1,protocols", "breakdown table1 protocols"},
		{"gendiff, paper,gendiff", "gendiff table1 figure1 table2 figure2 table3 handopt interface gendiff"},
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
// second pass over the store renders it without simulating.
func TestWarmBreakdownStartsNoRuns(t *testing.T) {
	dir := t.TempDir()
	var outs []string
	for pass := 0; pass < 2; pass++ {
		st, err := store.Open(dir, exp.StoreOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		e := exp.New()
		e.Observe, e.Store = true, st
		var sb strings.Builder
		if err := Breakdown.Print(&sb, e, smallBase); err != nil {
			t.Fatal(err)
		}
		st.Close()
		outs = append(outs, sb.String())
		hs := e.HostStats()
		if pass == 1 && (hs.RunsStarted != 0 || hs.StoreHits == 0) {
			t.Errorf("warm breakdown: %d runs started, %d store hits; want 0 and every run", hs.RunsStarted, hs.StoreHits)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("warm breakdown differs from cold:\n%s\nvs\n%s", outs[1], outs[0])
	}
	if err := Breakdown.Print(io.Discard, exp.New(), smallBase); err == nil {
		t.Error("breakdown printed through an engine that does not observe")
	}
}

// TestTablesRefuseADivergentChecksum: the tables that vary what a
// result must not depend on refuse records whose checksums disagree,
// each with its own message, and print nothing.
func TestTablesRefuseADivergentChecksum(t *testing.T) {
	e := exp.New()
	gen := CompiledPairs()[0][1]
	cases := []struct {
		specs  func(exp.Spec) []exp.Spec
		render func(io.Writer, exp.Spec, []exp.Record) error
		flip   int // the record whose checksum moves
		want   string
	}{
		{protocolSpecs, renderProtocols, 1,
			"protocol divergence: Jacobi/tmk procs=1: hlrc checksum "},
		{contentionSpecs, renderContention, len(contentionColumns("", "")),
			"contention changed the answer: Jacobi/tmk procs=1 nic checksum "},
		{compilerSpecs, renderCompiler, 1,
			fmt.Sprintf("compiler divergence: Jacobi: %s checksum ", gen)},
		{migrationSpecs, func(w io.Writer, base exp.Spec, recs []exp.Record) error {
			return renderMigration(w, base, recs, make([]int64, len(recs)))
		}, 1, "home policy changed the answer: MGS/tmk procs=1 firsttouch checksum "},
	}
	for _, c := range cases {
		recs, err := records(e, c.specs(smallBase))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := c.render(&sb, smallBase, recs); err != nil {
			t.Fatalf("%q: the unmodified records were refused: %v", c.want, err)
		}
		recs[c.flip].Checksum++
		sb.Reset()
		err = c.render(&sb, smallBase, recs)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("error = %v, want %q…", err, c.want)
		}
		if sb.Len() != 0 {
			t.Errorf("%q: rendered from divergent records:\n%s", c.want, sb.String())
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
	e := exp.New()
	e.Lookup = func(name string) (core.App, error) {
		a, err := exp.AppByName(name)
		if name == "MGS" {
			a = nanApp{a, core.TmkOpt}
		}
		return a, err
	}
	var sb strings.Builder
	err := HandOpt.Print(&sb, e, smallBase)
	if err == nil || err.Error() != "MGS/tmk-opt: non-finite checksum" {
		t.Errorf("HandOpt error = %v, want the run's non-finite checksum", err)
	}
	if sb.Len() != 0 {
		t.Errorf("HandOpt rendered from a failed run:\n%s", sb.String())
	}
	if err := Figure1.Print(&sb, e, smallBase); err != nil || !strings.Contains(sb.String(), "MGS") {
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
	for _, name := range RegularApps {
		if spf, pvme := speedup(name, core.SPF), speedup(name, core.PVMe); pvme <= spf {
			t.Errorf("%s: PVMe %.2f should beat SPF %.2f (regular apps)", name, pvme, spf)
		}
	}
	for _, name := range IrregularApps {
		if spf, xhpf := speedup(name, core.SPF), speedup(name, core.XHPF); spf <= xhpf {
			t.Errorf("%s: SPF %.2f should beat XHPF %.2f (irregular apps)", name, spf, xhpf)
		}
	}
}
