package harness

import (
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/sim"
)

// The home-policy migration experiment: where a page's master copy
// lives decides where every flushed diff travels, and the ROADMAP's
// adaptive-home-migration item asks exactly how much of MGS's flush
// traffic a dominant-writer policy recovers. The experiment runs the
// hand-coded TreadMarks versions under the home-based protocol with
// each home policy at 1-8 nodes and reports the flush traffic (the
// eager diff flushes only — the bytes home placement can move),
// whole-run migration counts, and the adaptive-vs-static flush delta.
//
// The applications are chosen for their write geometries: MGS's cyclic
// vectors fight the block-wise static homes (at mid scale one vector is
// one page, so adaptive repoints nearly every page to its owner and the
// flush traffic collapses); Jacobi's block rows already match the
// static homes (a good policy must *not* move anything); Shallow's
// thirteen-field layout puts two writers on block-boundary pages (the
// self-write guard must hold them still). First-touch shows the classic
// pathology: process 0 initializes the arrays, touches everything
// first, and captures pages it will never write again.

// migrationApps are the applications of the home-policy sweep.
var migrationApps = []string{"MGS", "Jacobi", "Shallow"}

// migrationProcCounts is the node-count sweep.
var migrationProcCounts = []int{1, 2, 4, 8}

// migration prints the home-policy sweep. Its flKB column is each
// run's diff traffic (diff_bytes), under the hlrc protocol the eager
// diff flushes to the homes. The base home policy (dsmrun -homepolicy,
// with -protocol hlrc) is the one every other table runs under.
var migration = Table{Name: "migration", Specs: migrationSpecs, render: renderMigration}

func migrationSpecs(base exp.Spec) (specs []exp.Spec) {
	base.Protocol = proto.HomeLRC // the only protocol with homes
	for _, name := range migrationApps {
		v := dsmVersionOf(mustApp(name))
		for _, procs := range migrationProcCounts {
			for _, pol := range proto.PolicyNames() {
				s := base
				s.HomePolicy = pol
				specs = append(specs, atProcs(s, name, v, procs))
			}
		}
	}
	return specs
}

// renderMigration prints the sweep from its records, in migrationSpecs
// order. Checksums must agree across policies (exp.Agree: bitwise) —
// placement may change only time and traffic — and single-node runs
// must never migrate; a row that breaks either refuses the table.
func renderMigration(w io.Writer, base exp.Spec, recs []exp.Record) error {
	pols := proto.PolicyNames()
	n := len(pols) // each row's records, consecutive, static first
	for row := 0; row < len(recs); row += n {
		for i, rec := range recs[row : row+n] {
			if err := exp.Agree(rec, recs[row]); err != nil {
				return err
			}
			if rec.Procs == 1 && rec.Migrations != 0 {
				return fmt.Errorf("single-node run migrated pages: %s/%s %s", rec.App, rec.Version, pols[i])
			}
		}
	}
	fmt.Fprintf(w, "Home-policy migration under hlrc: static vs firsttouch vs adaptive%s\n", scaleNote(base.Scale))
	fmt.Fprintf(w, "%-8s %5s |", "App", "procs")
	for _, pol := range pols {
		fmt.Fprintf(w, " %11s(t) %7s(flKB) %4s(mig) |", pol, pol, pol)
	}
	fmt.Fprintf(w, " %9s\n", "adpt/stat")
	fmt.Fprintln(w, "---------------------------------------------------------------------------------------------------------------------------")
	for row := 0; row < len(recs); row += n {
		fmt.Fprintf(w, "%-8s %5d |", recs[row].App, recs[row].Procs)
		var static, adaptive int64
		for i, rec := range recs[row : row+n] {
			switch pols[i] {
			case proto.StaticPolicy:
				static = rec.DiffBytes
			case proto.AdaptivePolicy:
				adaptive = rec.DiffBytes
			}
			fmt.Fprintf(w, " %14v %13d %9d |", sim.Time(rec.TimeNanos), rec.DiffBytes/1024, rec.Migrations)
		}
		delta := "-"
		if static > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*float64(adaptive-static)/float64(static))
		}
		fmt.Fprintf(w, " %9s\n", delta)
	}
	fmt.Fprintln(w, "(flKB = eager diff-flush traffic; mig = whole-run home migrations; adpt/stat = adaptive flush bytes vs static;")
	fmt.Fprintln(w, " checksums verified bit-identical across policies for every row)")
	return nil
}
