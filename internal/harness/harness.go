package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/store"
)

// Runner is a thin client of the internal/exp engine: it pins the
// default processor count, scale, calibration and protocol, renders
// specs for the experiments below, and shares one concurrency-safe
// result cache across every table and sub-runner.
type Runner struct {
	Procs    int
	Scale    core.Scale
	Costs    model.Costs
	App      model.AppCosts
	Protocol proto.Name // DSM coherence protocol (empty: homeless LRC)
	// HomePolicy selects the home-placement policy of the home-based
	// protocol (empty: static homes).
	HomePolicy proto.PolicyName
	// Workers bounds the engine's worker pool (0: all host cores).
	Workers int
	// Observe enables per-run observability (see exp.Engine.Observe):
	// every result carries its event trace and per-node time breakdown.
	Observe bool
	// Metrics, when non-nil, exposes the engine's host-side telemetry
	// on that registry (see exp.Engine.Metrics). One registry serves
	// one engine: side-runners sharing a process must keep their own
	// Metrics nil.
	Metrics *metrics.Registry
	// Store, when non-nil, backs the engine with the persistent result
	// store (see exp.Engine.Store): record-serving experiments are
	// byte-identical whether served from disk or executed. Set before
	// the first run.
	Store *store.Store

	eng *exp.Engine
}

// NewRunner builds a Runner with the calibrated SP/2 model.
func NewRunner(procs int, scale core.Scale) *Runner {
	return &Runner{
		Procs: procs,
		Scale: scale,
		Costs: model.SP2(),
		App:   model.DefaultAppCosts(),
	}
}

// Engine returns the runner's sweep engine, building it from the
// runner's calibration on first use. Set Costs, App and Workers before
// the first run; afterwards the calibration is frozen (the cache is
// keyed by spec alone).
func (r *Runner) Engine() *exp.Engine {
	if r.eng == nil {
		r.eng = exp.NewEngine(r.Costs, r.App)
		r.eng.Workers = r.Workers
		r.eng.Observe = r.Observe
		r.eng.Metrics = r.Metrics
		r.eng.Store = r.Store
	}
	return r.eng
}

// Spec renders the runner's identity for one (application, version)
// at the runner's processor count.
func (r *Runner) Spec(appName string, v core.Version) exp.Spec {
	return r.SpecAt(appName, v, r.Procs)
}

// SpecAt renders the runner's identity at an explicit processor count.
func (r *Runner) SpecAt(appName string, v core.Version, procs int) exp.Spec {
	s := exp.Spec{
		App: appName, Version: v, Procs: procs, Scale: r.Scale,
		Protocol: r.Protocol, Contention: r.Costs.Contention(),
		FIFO: r.Costs.FIFOPairs, HomePolicy: r.HomePolicy,
	}
	return s.Normalize()
}

// Config resolves the run configuration for an application (exposed
// for programs that drive app.Run directly, e.g. the examples).
func (r *Runner) Config(app core.App, procs int) core.Config {
	return r.Engine().Config(app, r.SpecAt(app.Name(), "", procs))
}

// Run executes (and caches) one version of an application.
func (r *Runner) Run(app core.App, v core.Version) (core.Result, error) {
	return r.Engine().Run(r.Spec(app.Name(), v))
}

// Sweep executes every spec across the worker pool, returning results
// in spec order (see exp.Engine.Sweep). Experiments use it to fan a
// whole table's grid out over host cores before rendering.
func (r *Runner) Sweep(specs []exp.Spec) ([]core.Result, error) {
	return r.Engine().Sweep(specs)
}

// results sweeps the specs and indexes the outcome by spec key.
func (r *Runner) results(specs []exp.Spec) (map[string]core.Result, error) {
	out, err := r.Sweep(specs)
	if err != nil {
		return nil, err
	}
	m := make(map[string]core.Result, len(specs))
	for i, s := range specs {
		m[s.Key()] = out[i]
	}
	return m, nil
}

// Speedup runs the version and its sequential baseline.
func (r *Runner) Speedup(app core.App, v core.Version) (float64, error) {
	seq, err := r.Run(app, core.Seq)
	if err != nil {
		return 0, err
	}
	res, err := r.Run(app, v)
	if err != nil {
		return 0, err
	}
	return res.Speedup(seq.Time), nil
}

// CachedKeys lists completed runs (for progress reporting).
func (r *Runner) CachedKeys() []string { return r.Engine().CachedKeys() }

func scaleNote(s core.Scale) string {
	if s == core.PaperScale {
		return ""
	}
	return fmt.Sprintf(" [%s scale: absolute counts are not comparable to the paper's; rankings are]", s)
}

// Table1 prints data-set sizes and sequential times (paper Table 1).
func Table1(w io.Writer, r *Runner) error {
	var specs []exp.Spec
	for _, a := range exp.PaperApps() {
		specs = append(specs, r.Spec(a.Name(), core.Seq))
	}
	res, err := r.results(specs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1: Data Set Sizes and Sequential Execution Time%s\n", scaleNote(r.Scale))
	fmt.Fprintf(w, "%-9s | %-28s | %10s | %10s\n", "App", "Problem Size", "paper (s)", "meas (s)")
	fmt.Fprintln(w, "----------------------------------------------------------------------")
	for _, a := range exp.PaperApps() {
		seq := res[r.Spec(a.Name(), core.Seq).Key()]
		note := ""
		if SeqEstimated[a.Name()] {
			note = "*"
		}
		fmt.Fprintf(w, "%-9s | %-28s | %9.1f%1s | %10.1f\n",
			a.Name(), PaperDataSet[a.Name()], PaperSeqSeconds[a.Name()], note, seq.Time.Seconds())
	}
	fmt.Fprintln(w, "(*) illegible in our source text of the paper; estimated (DESIGN.md)")
	return nil
}

// figureSpecs is the grid behind Figures 1/2 and Tables 2/3: every
// figure version of every listed application, plus the sequential
// baselines the speedups divide by.
func (r *Runner) figureSpecs(apps []string) []exp.Spec {
	axes := exp.Axes{Apps: apps, Versions: FigureVersions}
	specs := axes.Specs(r.Spec("", ""))
	for i := range specs {
		specs[i] = specs[i].Normalize()
	}
	for _, name := range apps {
		specs = append(specs, r.Spec(name, core.Seq))
	}
	return specs
}

func figure(w io.Writer, r *Runner, title string, apps []string) error {
	res, err := r.results(r.figureSpecs(apps))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", title, scaleNote(r.Scale))
	fmt.Fprintf(w, "%-9s |", "App")
	for _, v := range FigureVersions {
		fmt.Fprintf(w, " %6s(p) %6s(m) |", v, v)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "---------------------------------------------------------------------------------------------------")
	for _, name := range apps {
		seq := res[r.Spec(name, core.Seq).Key()]
		fmt.Fprintf(w, "%-9s |", name)
		for _, v := range FigureVersions {
			sp := res[r.Spec(name, v).Key()].Speedup(seq.Time)
			paper := PaperSpeedup[name][v]
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

// Figure1 prints 8-processor speedups for the regular applications.
func Figure1(w io.Writer, r *Runner) error {
	return figure(w, r, "Figure 1: Speedups, regular applications (paper vs measured)", RegularApps)
}

// Figure2 prints 8-processor speedups for the irregular applications.
func Figure2(w io.Writer, r *Runner) error {
	return figure(w, r, "Figure 2: Speedups, irregular applications (paper vs measured)", IrregularApps)
}

func traffic(w io.Writer, r *Runner, title string, apps []string) error {
	res, err := r.results(r.figureSpecs(apps))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", title, scaleNote(r.Scale))
	fmt.Fprintf(w, "%-9s %-5s |", "App", "")
	for _, v := range FigureVersions {
		fmt.Fprintf(w, " %8s(p) %8s(m) |", v, v)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "-----------------------------------------------------------------------------------------------------------")
	for _, name := range apps {
		fmt.Fprintf(w, "%-9s %-5s |", name, "msgs")
		for _, v := range FigureVersions {
			rr := res[r.Spec(name, v).Key()]
			fmt.Fprintf(w, " %11d %11d |", PaperMsgs[name][v], rr.Stats.TotalMsgs())
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-9s %-5s |", "", "KB")
		for _, v := range FigureVersions {
			rr := res[r.Spec(name, v).Key()]
			fmt.Fprintf(w, " %11d %11d |", PaperKB[name][v], rr.Stats.TotalKB())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table2 prints message and data totals for the regular applications.
func Table2(w io.Writer, r *Runner) error {
	return traffic(w, r, "Table 2: Message totals and data totals (KB), regular applications", RegularApps)
}

// Table3 prints message and data totals for the irregular applications.
func Table3(w io.Writer, r *Runner) error {
	return traffic(w, r, "Table 3: Message totals and data totals (KB), irregular applications", IrregularApps)
}

// HandOptCase is one §5 hand-optimization experiment: an application's
// hand-optimized version, measured against the version it varies
// (core.VersionInfo.Varies).
type HandOptCase struct {
	App  string
	Opt  core.Version
	Note string
}

// HandOptCases are the paper's §5 experiments, in its order.
var HandOptCases = []HandOptCase{
	{"Jacobi", core.SPFOpt, "data aggregation (§5.1)"},
	{"Shallow", core.SPFOpt, "merged loops + aggregation (§5.2)"},
	{"MGS", core.TmkOpt, "merged sync+data broadcast (§5.3)"},
	{"3-D FFT", core.SPFOpt, "data aggregation (§5.4)"},
}

// HandOpt prints the §5 hand-optimization results.
func HandOpt(w io.Writer, r *Runner) error {
	var specs []exp.Spec
	for _, c := range HandOptCases {
		specs = append(specs,
			r.Spec(c.App, core.Seq),
			r.Spec(c.App, core.Describe(c.Opt).Varies),
			r.Spec(c.App, c.Opt))
	}
	res, err := r.results(specs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Section 5 hand optimizations (paper vs measured speedup)%s\n", scaleNote(r.Scale))
	fmt.Fprintf(w, "%-9s | %-34s | %19s | %19s\n", "App", "Optimization", "before (p)    (m)", "after (p)    (m)")
	fmt.Fprintln(w, "---------------------------------------------------------------------------------------------")
	for _, c := range HandOptCases {
		seq := res[r.Spec(c.App, core.Seq).Key()]
		base := core.Describe(c.Opt).Varies
		before := res[r.Spec(c.App, base).Key()].Speedup(seq.Time)
		after := res[r.Spec(c.App, c.Opt).Key()].Speedup(seq.Time)
		fmt.Fprintf(w, "%-9s | %-34s | %8.2f %9.2f | %8.2f %9.2f\n",
			c.App, c.Note, PaperSpeedup[c.App][base], before, PaperSpeedup[c.App][c.Opt], after)
	}
	return nil
}

// Interface prints the §2.3 compiler-interface ablation: the improved
// fork-join interface (2(n-1) messages per loop) against the original
// (8(n-1)), measured on Jacobi.
func Interface(w io.Writer, r *Runner) error {
	specs := []exp.Spec{
		r.Spec("Jacobi", core.Seq),
		r.Spec("Jacobi", core.SPFOld),
		r.Spec("Jacobi", core.SPF),
	}
	res, err := r.results(specs)
	if err != nil {
		return err
	}
	seq := res[specs[0].Key()]
	old := res[specs[1].Key()]
	improved := res[specs[2].Key()]
	fmt.Fprintf(w, "Section 2.3 interface ablation (Jacobi)%s\n", scaleNote(r.Scale))
	fmt.Fprintf(w, "%-20s | %10s | %10s | %8s\n", "Interface", "msgs", "time (s)", "speedup")
	fmt.Fprintln(w, "--------------------------------------------------------")
	fmt.Fprintf(w, "%-20s | %10d | %10.2f | %8.2f\n", "original (8(n-1))", old.Stats.TotalMsgs(), old.Time.Seconds(), old.Speedup(seq.Time))
	fmt.Fprintf(w, "%-20s | %10d | %10.2f | %8.2f\n", "improved (2(n-1))", improved.Stats.TotalMsgs(), improved.Time.Seconds(), improved.Speedup(seq.Time))
	fmt.Fprintf(w, "paper: the improvement cuts fork-join messages 4x and \"has a significant effect on execution time\"\n")
	return nil
}

// All runs every experiment in paper order.
func All(w io.Writer, r *Runner) error {
	steps := []func(io.Writer, *Runner) error{
		Table1, Figure1, Table2, Figure2, Table3, HandOpt, Interface,
	}
	for i, f := range steps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := f(w, r); err != nil {
			return err
		}
	}
	return nil
}

// Scalability sweeps the processor count for one application and prints
// the speedup curve of every version — the paper's §8 closes by
// anticipating behaviour "when scaling to a large number of processors";
// this experiment extends the evaluation in that direction.
func Scalability(w io.Writer, r *Runner, appName string, procCounts []int) error {
	var specs []exp.Spec
	specs = append(specs, r.Spec(appName, core.Seq))
	for _, p := range procCounts {
		for _, v := range FigureVersions {
			specs = append(specs, r.SpecAt(appName, v, p))
		}
	}
	res, err := r.results(specs)
	if err != nil {
		return err
	}
	seq := res[r.Spec(appName, core.Seq).Key()]
	fmt.Fprintf(w, "Scalability: %s speedups by processor count%s\n", appName, scaleNote(r.Scale))
	fmt.Fprintf(w, "%-6s |", "procs")
	for _, v := range FigureVersions {
		fmt.Fprintf(w, " %8s |", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "--------------------------------------------------")
	for _, p := range procCounts {
		fmt.Fprintf(w, "%-6d |", p)
		for _, v := range FigureVersions {
			fmt.Fprintf(w, " %8.2f |", res[r.SpecAt(appName, v, p).Key()].Speedup(seq.Time))
		}
		fmt.Fprintln(w)
	}
	return nil
}
