package harness

import (
	"fmt"
	"io"

	"repro/internal/apps/jacobi"
	"repro/internal/apps/rbsor"
	"repro/internal/core"
	"repro/internal/exp"
)

// The compiler experiment: for every kernel expressed in the
// internal/loopc loop-nest IR, run the hand-coded compiler-model
// versions next to the loopc-generated ones. The generated code must be
// bit-identical in its numerical result (verified here and, across
// protocols and node counts, by TestCompiledEquivalence); the table
// shows that its time, message and byte costs also match the
// hand-written rendition of the same compiler output.

// CompiledApps returns the applications that carry a loopc IR
// description and therefore support the spf-gen and xhpf-gen versions.
func CompiledApps() []core.App {
	return []core.App{jacobi.New(), rbsor.New()}
}

// CompiledPairs lists the hand-vs-generated version pairs: each
// generated row of the version table after the version it reproduces.
func CompiledPairs() (out [][2]core.Version) {
	for _, row := range core.VersionTable() {
		if row.Generated {
			out = append(out, [2]core.Version{row.Varies, row.Version})
		}
	}
	return out
}

// Compiler prints the compiled-vs-hand comparison and verifies the
// result equivalence as it goes: a checksum divergence is an error,
// not a table entry. The hand/generated grid sweeps through the engine
// up front.
func Compiler(w io.Writer, r *Runner) error {
	var specs []exp.Spec
	for _, a := range CompiledApps() {
		for _, pair := range CompiledPairs() {
			specs = append(specs, r.Spec(a.Name(), pair[0]), r.Spec(a.Name(), pair[1]))
		}
	}
	res, err := r.results(specs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Compiler front end: hand-coded vs loopc-generated versions (%d procs)%s\n",
		r.Procs, scaleNote(r.Scale))
	fmt.Fprintf(w, "%-9s %-9s | %13s | %9s | %8s | %s\n", "App", "version", "time", "msgs", "KB", "checksum")
	fmt.Fprintln(w, "-------------------------------------------------------------------------")
	for _, a := range CompiledApps() {
		for _, pair := range CompiledPairs() {
			hand := res[r.Spec(a.Name(), pair[0]).Key()]
			gen := res[r.Spec(a.Name(), pair[1]).Key()]
			if gen.Checksum != hand.Checksum {
				return fmt.Errorf("compiler divergence: %s: %s checksum %g != %s checksum %g",
					a.Name(), pair[1], gen.Checksum, pair[0], hand.Checksum)
			}
			for _, re := range []core.Result{hand, gen} {
				fmt.Fprintf(w, "%-9s %-9s | %13v | %9d | %8d | %g\n",
					a.Name(), re.Version, re.Time, re.Stats.TotalMsgs(), re.Stats.TotalKB(), re.Checksum)
			}
		}
	}
	fmt.Fprintln(w, "(generated checksums verified bit-identical to the hand-coded versions)")
	return nil
}
