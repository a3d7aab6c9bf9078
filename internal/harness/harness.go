package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
)

// A Table is one experiment of the evaluation: the runs it reads, as a
// spec list derived from a base spec, and a render over their records.
// The base spec carries what dsmrun's flags set — the processor count,
// scale, protocol, home policy and contention — and a table may vary
// any of it (the protocols table sweeps processors and protocols). A
// table reads records, not results, so a store that holds its runs
// serves it without simulating.
type Table struct {
	Name string
	// paper marks the paper's own tables and figures: the ones the
	// name "paper" selects.
	paper bool
	// Observe marks a table that reads the time attribution (the bd_*
	// fields): its records come from an observing engine.
	Observe bool
	// Specs lists the table's runs under base.
	Specs func(base exp.Spec) []exp.Spec
	// render prints the table from recs, the records of Specs(base) in
	// order. Records that break the table's invariant are refused: it
	// returns the error and prints nothing.
	render func(w io.Writer, base exp.Spec, recs []exp.Record) error
}

// Print prints the table under base, reading its records through e.
func (t Table) Print(w io.Writer, e *exp.Engine, base exp.Spec) error {
	if t.Observe && !e.Observe {
		return fmt.Errorf("harness: %s needs an observing engine", t.Name)
	}
	recs, err := records(e, t.Specs(base))
	if err != nil {
		return err
	}
	return t.render(w, base, recs)
}

// records reads the records of specs in order through e's stream, so a
// table reads exactly what the stream would write: each distinct run
// once, from the store when it holds it, each failure reported once.
func records(e *exp.Engine, specs []exp.Spec) ([]exp.Record, error) {
	recs := make([]exp.Record, 0, len(specs))
	_, err := e.StreamWith(io.Discard, specs, func(r *exp.Record) { recs = append(recs, *r) })
	return recs, err
}

// tables lists every experiment; "paper" selects the paper ones in this
// order.
var tables = []Table{
	table1, figure1, table2, figure2, table3, handOpt, interfaceAblation,
	scalability, protocols, compiler, contention, migration, breakdown,
}

// Select resolves a comma-separated list of table names to the tables,
// in the order named. The name "paper" stands for the paper tables, in
// tables order. Every name is checked before any table runs: a typo
// late in the list must not cost the tables before it.
func Select(list string) ([]Table, error) {
	var out []Table
	for _, name := range strings.Split(list, ",") {
		n, want := len(out), strings.TrimSpace(name)
		for _, t := range tables {
			if t.Name == want || (want == "paper" && t.paper) {
				out = append(out, t)
			}
		}
		if len(out) == n {
			names := make([]string, len(tables))
			for i, t := range tables {
				names[i] = t.Name
			}
			return nil, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(names, ", "))
		}
	}
	return out, nil
}

// at is base's spec of one application version.
func at(base exp.Spec, app string, v core.Version) exp.Spec {
	base.App, base.Version = app, v
	return base.Normalize()
}

// atProcs is base's spec of one application version at procs.
func atProcs(base exp.Spec, app string, v core.Version, procs int) exp.Spec {
	base.Procs = procs
	return at(base, app, v)
}

// byKey indexes a table's records by their spec's key, so a render looks
// each cell up by the spec its Specs built for it.
type byKey map[string]exp.Record

func index(recs []exp.Record) byKey {
	m := make(byKey, len(recs))
	for _, rec := range recs {
		m[rec.Key()] = rec
	}
	return m
}

func (m byKey) of(s exp.Spec) exp.Record { return m[s.Key()] }

// speedup is rec's speedup over the sequential run seq.
func speedup(rec, seq exp.Record) float64 {
	if rec.TimeNanos == 0 {
		return 0
	}
	return float64(seq.TimeNanos) / float64(rec.TimeNanos)
}

// mustApp is a registered application the tables name.
func mustApp(name string) core.App {
	a, err := exp.AppByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

func scaleNote(s core.Scale) string {
	if s == core.PaperScale {
		return ""
	}
	return fmt.Sprintf(" [%s scale: absolute counts are not comparable to the paper's; rankings are]", s)
}

// table1 prints data-set sizes and sequential times (paper Table 1).
var table1 = Table{Name: "table1", paper: true, Specs: table1Specs, render: renderTable1}

func table1Specs(base exp.Spec) (specs []exp.Spec) {
	for _, a := range exp.PaperApps() {
		specs = append(specs, at(base, a.Name(), core.Seq))
	}
	return specs
}

func renderTable1(w io.Writer, base exp.Spec, recs []exp.Record) error {
	fmt.Fprintf(w, "Table 1: Data Set Sizes and Sequential Execution Time%s\n", scaleNote(base.Scale))
	fmt.Fprintf(w, "%-9s | %-28s | %10s | %10s\n", "App", "Problem Size", "paper (s)", "meas (s)")
	fmt.Fprintln(w, "----------------------------------------------------------------------")
	for _, seq := range recs {
		note := ""
		if seqEstimated[seq.App] {
			note = "*"
		}
		fmt.Fprintf(w, "%-9s | %-28s | %9.1f%1s | %10.1f\n",
			seq.App, paperDataSet[seq.App], paperSeqSeconds[seq.App], note, seq.TimeSeconds)
	}
	fmt.Fprintln(w, "(*) illegible in our source text of the paper; estimated (DESIGN.md)")
	return nil
}

// figureSpecs is the grid behind Figures 1/2 and Tables 2/3: every
// figure version of every listed application, plus the sequential
// baselines the speedups divide by.
func figureSpecs(apps []string) func(exp.Spec) []exp.Spec {
	return func(base exp.Spec) []exp.Spec {
		axes := exp.Axes{Apps: apps, Versions: figureVersions}
		specs := axes.Specs(at(base, "", ""))
		for i := range specs {
			specs[i] = specs[i].Normalize()
		}
		for _, name := range apps {
			specs = append(specs, at(base, name, core.Seq))
		}
		return specs
	}
}

func figure(title string, apps []string) func(io.Writer, exp.Spec, []exp.Record) error {
	return func(w io.Writer, base exp.Spec, recs []exp.Record) error {
		res := index(recs)
		fmt.Fprintf(w, "%s%s\n", title, scaleNote(base.Scale))
		fmt.Fprintf(w, "%-9s |", "App")
		for _, v := range figureVersions {
			fmt.Fprintf(w, " %6s(p) %6s(m) |", v, v)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "---------------------------------------------------------------------------------------------------")
		for _, name := range apps {
			seq := res.of(at(base, name, core.Seq))
			fmt.Fprintf(w, "%-9s |", name)
			for _, v := range figureVersions {
				sp := speedup(res.of(at(base, name, v)), seq)
				paper := paperSpeedup[name][v]
				if paper == 0 {
					fmt.Fprintf(w, " %9s %6.2f    |", "-", sp)
				} else {
					fmt.Fprintf(w, " %9.2f %6.2f    |", paper, sp)
				}
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// figure1 prints 8-processor speedups for the regular applications.
var figure1 = Table{Name: "figure1", paper: true, Specs: figureSpecs(regularApps),
	render: figure("Figure 1: Speedups, regular applications (paper vs measured)", regularApps)}

// figure2 prints 8-processor speedups for the irregular applications.
var figure2 = Table{Name: "figure2", paper: true, Specs: figureSpecs(irregularApps),
	render: figure("Figure 2: Speedups, irregular applications (paper vs measured)", irregularApps)}

func traffic(title string, apps []string) func(io.Writer, exp.Spec, []exp.Record) error {
	return func(w io.Writer, base exp.Spec, recs []exp.Record) error {
		res := index(recs)
		fmt.Fprintf(w, "%s%s\n", title, scaleNote(base.Scale))
		fmt.Fprintf(w, "%-9s %-5s |", "App", "")
		for _, v := range figureVersions {
			fmt.Fprintf(w, " %8s(p) %8s(m) |", v, v)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "-----------------------------------------------------------------------------------------------------------")
		for _, name := range apps {
			fmt.Fprintf(w, "%-9s %-5s |", name, "msgs")
			for _, v := range figureVersions {
				fmt.Fprintf(w, " %11d %11d |", paperMsgs[name][v], res.of(at(base, name, v)).Msgs)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "%-9s %-5s |", "", "KB")
			for _, v := range figureVersions {
				fmt.Fprintf(w, " %11d %11d |", paperKB[name][v], res.of(at(base, name, v)).Bytes/1024)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// table2 prints message and data totals for the regular applications.
var table2 = Table{Name: "table2", paper: true, Specs: figureSpecs(regularApps),
	render: traffic("Table 2: Message totals and data totals (KB), regular applications", regularApps)}

// table3 prints message and data totals for the irregular applications.
var table3 = Table{Name: "table3", paper: true, Specs: figureSpecs(irregularApps),
	render: traffic("Table 3: Message totals and data totals (KB), irregular applications", irregularApps)}

// handOptCase is one §5 hand-optimization experiment: an application's
// hand-optimized version, measured against the version it varies
// (core.VersionInfo.Varies).
type handOptCase struct {
	app  string
	opt  core.Version
	note string
}

// handOptCases are the paper's §5 experiments, in its order.
var handOptCases = []handOptCase{
	{"Jacobi", core.SPFOpt, "data aggregation (§5.1)"},
	{"Shallow", core.SPFOpt, "merged loops + aggregation (§5.2)"},
	{"MGS", core.TmkOpt, "merged sync+data broadcast (§5.3)"},
	{"3-D FFT", core.SPFOpt, "data aggregation (§5.4)"},
}

// handOpt prints the §5 hand-optimization results.
var handOpt = Table{Name: "handopt", paper: true, Specs: handOptSpecs, render: renderHandOpt}

func handOptSpecs(base exp.Spec) (specs []exp.Spec) {
	for _, c := range handOptCases {
		specs = append(specs,
			at(base, c.app, core.Seq),
			at(base, c.app, core.Describe(c.opt).Varies),
			at(base, c.app, c.opt))
	}
	return specs
}

func renderHandOpt(w io.Writer, base exp.Spec, recs []exp.Record) error {
	res := index(recs)
	fmt.Fprintf(w, "Section 5 hand optimizations (paper vs measured speedup)%s\n", scaleNote(base.Scale))
	fmt.Fprintf(w, "%-9s | %-34s | %19s | %19s\n", "App", "Optimization", "before (p)    (m)", "after (p)    (m)")
	fmt.Fprintln(w, "---------------------------------------------------------------------------------------------")
	for _, c := range handOptCases {
		seq := res.of(at(base, c.app, core.Seq))
		v := core.Describe(c.opt).Varies
		before := speedup(res.of(at(base, c.app, v)), seq)
		after := speedup(res.of(at(base, c.app, c.opt)), seq)
		fmt.Fprintf(w, "%-9s | %-34s | %8.2f %9.2f | %8.2f %9.2f\n",
			c.app, c.note, paperSpeedup[c.app][v], before, paperSpeedup[c.app][c.opt], after)
	}
	return nil
}

// interfaceAblation prints the §2.3 compiler-interface ablation: the
// improved fork-join interface (2(n-1) messages per loop) against the
// original (8(n-1)), measured on Jacobi.
var interfaceAblation = Table{Name: "interface", paper: true, Specs: interfaceSpecs, render: renderInterface}

func interfaceSpecs(base exp.Spec) []exp.Spec {
	return []exp.Spec{at(base, "Jacobi", core.Seq), at(base, "Jacobi", core.SPFOld), at(base, "Jacobi", core.SPF)}
}

func renderInterface(w io.Writer, base exp.Spec, recs []exp.Record) error {
	seq, old, improved := recs[0], recs[1], recs[2]
	fmt.Fprintf(w, "Section 2.3 interface ablation (Jacobi)%s\n", scaleNote(base.Scale))
	fmt.Fprintf(w, "%-20s | %10s | %10s | %8s\n", "Interface", "msgs", "time (s)", "speedup")
	fmt.Fprintln(w, "--------------------------------------------------------")
	fmt.Fprintf(w, "%-20s | %10d | %10.2f | %8.2f\n", "original (8(n-1))", old.Msgs, old.TimeSeconds, speedup(old, seq))
	fmt.Fprintf(w, "%-20s | %10d | %10.2f | %8.2f\n", "improved (2(n-1))", improved.Msgs, improved.TimeSeconds, speedup(improved, seq))
	fmt.Fprintf(w, "paper: the improvement cuts fork-join messages 4x and \"has a significant effect on execution time\"\n")
	return nil
}

// The scalability sweep: one application at these processor counts.
const scalabilityApp = "Jacobi"

var scalabilityProcCounts = []int{2, 4, 8}

// scalability sweeps the processor count for one application and prints
// the speedup curve of every version — the paper's §8 closes by
// anticipating behaviour "when scaling to a large number of processors";
// this experiment extends the evaluation in that direction.
var scalability = Table{Name: "scalability", Specs: scalabilitySpecs, render: renderScalability}

func scalabilitySpecs(base exp.Spec) []exp.Spec {
	specs := []exp.Spec{at(base, scalabilityApp, core.Seq)}
	for _, p := range scalabilityProcCounts {
		for _, v := range figureVersions {
			specs = append(specs, atProcs(base, scalabilityApp, v, p))
		}
	}
	return specs
}

func renderScalability(w io.Writer, base exp.Spec, recs []exp.Record) error {
	res := index(recs)
	seq := recs[0]
	fmt.Fprintf(w, "Scalability: %s speedups by processor count%s\n", scalabilityApp, scaleNote(base.Scale))
	fmt.Fprintf(w, "%-6s |", "procs")
	for _, v := range figureVersions {
		fmt.Fprintf(w, " %8s |", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "--------------------------------------------------")
	for _, p := range scalabilityProcCounts {
		fmt.Fprintf(w, "%-6d |", p)
		for _, v := range figureVersions {
			fmt.Fprintf(w, " %8.2f |", speedup(res.of(atProcs(base, scalabilityApp, v, p)), seq))
		}
		fmt.Fprintln(w)
	}
	return nil
}
