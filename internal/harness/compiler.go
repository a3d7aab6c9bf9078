package harness

import (
	"fmt"
	"io"

	"repro/internal/apps/jacobi"
	"repro/internal/apps/rbsor"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
)

// The compiler experiment: for every kernel expressed in the
// internal/loopc loop-nest IR, run the hand-coded compiler-model
// versions next to the loopc-generated ones. The generated code must be
// bit-identical in its numerical result (verified here and, across
// protocols and node counts, by TestCompiledEquivalence); the table
// shows that its time, message and byte costs also match the
// hand-written rendition of the same compiler output.

// compiledApps returns the applications that carry a loopc IR
// description and therefore support the spf-gen and xhpf-gen versions.
func compiledApps() []core.App {
	return []core.App{jacobi.New(), rbsor.New()}
}

// compiledPairs lists the hand-vs-generated version pairs: each
// generated row of the version table after the version it reproduces.
func compiledPairs() (out [][2]core.Version) {
	for _, row := range core.VersionTable() {
		if row.Generated {
			out = append(out, [2]core.Version{row.Varies, row.Version})
		}
	}
	return out
}

// compiler prints the compiled-vs-hand comparison, each hand-coded
// version's record followed by its generated one. A generated checksum
// that differs from the hand-coded one (exp.Agree) refuses the table.
var compiler = Table{Name: "compiler", Specs: compilerSpecs, render: renderCompiler}

func compilerSpecs(base exp.Spec) (specs []exp.Spec) {
	for _, a := range compiledApps() {
		for _, pair := range compiledPairs() {
			specs = append(specs, at(base, a.Name(), pair[0]), at(base, a.Name(), pair[1]))
		}
	}
	return specs
}

func renderCompiler(w io.Writer, base exp.Spec, recs []exp.Record) error {
	for i := 0; i < len(recs); i += 2 {
		if err := exp.Agree(recs[i+1], recs[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "Compiler front end: hand-coded vs loopc-generated versions (%d procs)%s\n",
		base.Procs, scaleNote(base.Scale))
	fmt.Fprintf(w, "%-9s %-9s | %13s | %9s | %8s | %s\n", "App", "version", "time", "msgs", "KB", "checksum")
	fmt.Fprintln(w, "-------------------------------------------------------------------------")
	for _, rec := range recs {
		fmt.Fprintf(w, "%-9s %-9s | %13v | %9d | %8d | %g\n",
			rec.App, rec.Version, sim.Time(rec.TimeNanos), rec.Msgs, rec.Bytes/1024, rec.Checksum)
	}
	fmt.Fprintln(w, "(generated checksums verified bit-identical to the hand-coded versions)")
	return nil
}
