package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/stats"
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

// MigrationApps are the applications of the home-policy sweep.
var MigrationApps = []string{"MGS", "Jacobi", "Shallow"}

// MigrationProcCounts is the node-count sweep.
var MigrationProcCounts = []int{1, 2, 4, 8}

// MigrationSpecs renders the full (app × procs × policy) grid of the
// experiment under the home-based protocol.
func (r *Runner) MigrationSpecs() []exp.Spec {
	var specs []exp.Spec
	for _, name := range MigrationApps {
		a, err := exp.AppByName(name)
		if err != nil {
			continue
		}
		v := DSMVersionOf(a)
		for _, procs := range MigrationProcCounts {
			for _, pol := range proto.PolicyNames() {
				specs = append(specs, r.policySub(procs, pol).Spec(a.Name(), v))
			}
		}
	}
	return specs
}

// flushBytes is the traffic component home placement moves: the eager
// diff flushes of the home-based protocol.
func flushBytes(res core.Result) int64 { return res.Stats.BytesOf(stats.KindDiff) }

// Migration prints the home-policy sweep. Checksums must be
// bit-identical across policies — placement may change only time and
// traffic — so a divergence is an error, not a table entry; single-node
// runs must never migrate.
func Migration(w io.Writer, r *Runner) error {
	if _, err := r.Sweep(r.MigrationSpecs()); err != nil {
		return err
	}
	fmt.Fprintf(w, "Home-policy migration under hlrc: static vs firsttouch vs adaptive%s\n", scaleNote(r.Scale))
	fmt.Fprintf(w, "%-8s %5s |", "App", "procs")
	for _, pol := range proto.PolicyNames() {
		fmt.Fprintf(w, " %11s(t) %7s(flKB) %4s(mig) |", pol, pol, pol)
	}
	fmt.Fprintf(w, " %9s\n", "adpt/stat")
	fmt.Fprintln(w, "---------------------------------------------------------------------------------------------------------------------------")
	for _, name := range MigrationApps {
		a, err := exp.AppByName(name)
		if err != nil {
			return err
		}
		v := DSMVersionOf(a)
		for _, procs := range MigrationProcCounts {
			var static, adaptive core.Result
			var base float64
			fmt.Fprintf(w, "%-8s %5d |", name, procs)
			for i, pol := range proto.PolicyNames() {
				res, err := r.policySub(procs, pol).Run(a, v)
				if err != nil {
					return fmt.Errorf("%s/%s procs=%d %s: %w", name, v, procs, pol, err)
				}
				if i == 0 {
					base = res.Checksum
					static = res
				} else if res.Checksum != base {
					return fmt.Errorf("home policy changed the answer: %s/%s procs=%d %s checksum %g != static %g",
						name, v, procs, pol, res.Checksum, base)
				}
				if procs == 1 && res.Migrations != 0 {
					return fmt.Errorf("single-node run migrated pages: %s/%s %s", name, v, pol)
				}
				if pol == proto.AdaptivePolicy {
					adaptive = res
				}
				fmt.Fprintf(w, " %14v %13d %9d |", res.Time, flushBytes(res)/1024, res.Migrations)
			}
			delta := "-"
			if fb := flushBytes(static); fb > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*float64(flushBytes(adaptive)-fb)/float64(fb))
			}
			fmt.Fprintf(w, " %9s\n", delta)
		}
	}
	fmt.Fprintln(w, "(flKB = eager diff-flush traffic; mig = whole-run home migrations; adpt/stat = adaptive flush bytes vs static;")
	fmt.Fprintln(w, " checksums verified bit-identical across policies for every row)")
	return nil
}
