package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// The contention experiment: the paper attributes XHPF's collapse on
// the irregular applications to broadcast/gather message storms on the
// SP/2's two-level crossbar. With the serial-NIC contention model on,
// those storms queue on the sending node's outgoing link (broadcast)
// and the root's incoming link (gather) instead of overlapping for
// free, so their cost degrades super-linearly with node count — while
// Jacobi's pairwise halo exchanges, which spread load over disjoint
// links, are barely affected. The experiment sweeps the backplane
// capacity at 1-8 nodes for one regular and both irregular applications
// under both coherence protocols and all three runtimes.

// ContentionApps are the applications of the contention sweep: the
// regular control (halo exchanges) and the two irregular applications
// (broadcast storms).
var ContentionApps = []string{"Jacobi", "IGrid", "NBF"}

// ContentionProcCounts is the node-count sweep.
var ContentionProcCounts = []int{1, 2, 4, 8}

// ContentionSweep lists the swept backplane capacities: 0 is the ideal
// infinite-capacity interconnect (contention off — the pre-contention
// model), -1 enables the serial NICs over an ideal backplane, and a
// positive value additionally bounds the backplane to that many
// concurrent full-rate transfers.
var ContentionSweep = []int{0, -1, 4, 1}

// contentionLabel names one sweep point.
func contentionLabel(ways int) string {
	switch {
	case ways == 0:
		return "ideal"
	case ways < 0:
		return "nic"
	default:
		return fmt.Sprintf("nic+bp%d", ways)
	}
}

// contendedSub derives a runner at the given node count, protocol and
// contention point, overriding whatever contention setting the parent
// runner carries while keeping its other calibrations (and its engine).
func (r *Runner) contendedSub(procs int, p proto.Name, ways int) *Runner {
	nr := r.sub(procs, p)
	nr.Costs = nr.Costs.WithContention(ways)
	return nr
}

// ContentionSpec renders one (app, version, procs, protocol, sweep
// point) run.
func (r *Runner) ContentionSpec(a core.App, v core.Version, procs int, p proto.Name, ways int) exp.Spec {
	return r.contendedSub(procs, p, ways).Spec(a.Name(), v)
}

// ContentionRun executes one (app, version, procs, protocol, sweep
// point) run.
func (r *Runner) ContentionRun(a core.App, v core.Version, procs int, p proto.Name, ways int) (core.Result, error) {
	return r.Engine().Run(r.ContentionSpec(a, v, procs, p, ways))
}

// contentionColumn is one per-row run of the contention table.
type contentionColumn struct {
	col  string
	ver  core.Version
	prot proto.Name
}

// contentionColumns are the per-row runs of the contention table. The
// message-passing columns carry the runner's protocol like any other
// spec of its tables: they do not read it, and the engine runs them
// once whatever it says (exp.Spec.Canonical).
func (r *Runner) contentionColumns(v core.Version) []contentionColumn {
	return []contentionColumn{
		{"tmk/lrc", v, proto.HomelessLRC},
		{"tmk/hlrc", v, proto.HomeLRC},
		{"xhpf", core.XHPF, r.Protocol},
		{"pvme", core.PVMe, r.Protocol},
	}
}

// Contention prints the contention sweep. Per row (app, procs, sweep
// point) it reports virtual time and total queueing delay for the
// hand-coded TreadMarks version under both protocols, XHPF, and PVMe.
// Checksums must not depend on the contention point — queueing delays
// messages but never reorders matching ones — so any divergence from
// the ideal-interconnect run is an error, not a table entry. The full
// grid sweeps through the engine up front.
func Contention(w io.Writer, r *Runner) error {
	var specs []exp.Spec
	for _, name := range ContentionApps {
		a, err := exp.AppByName(name)
		if err != nil {
			return err
		}
		v := DSMVersionOf(a)
		for _, procs := range ContentionProcCounts {
			for _, ways := range ContentionSweep {
				for _, c := range r.contentionColumns(v) {
					specs = append(specs, r.ContentionSpec(a, c.ver, procs, c.prot, ways))
				}
			}
		}
	}
	if _, err := r.Sweep(specs); err != nil {
		return err
	}
	fmt.Fprintf(w, "Network contention: serial NICs + backplane sweep%s\n", scaleNote(r.Scale))
	fmt.Fprintf(w, "%-7s %5s %-8s |", "App", "procs", "switch")
	for _, c := range r.contentionColumns("") {
		fmt.Fprintf(w, " %10s(t) %8s(qd) |", c.col, c.col)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "--------------------------------------------------------------------------------------------------------------------")
	for _, name := range ContentionApps {
		a, err := exp.AppByName(name)
		if err != nil {
			return err
		}
		v := DSMVersionOf(a)
		for _, procs := range ContentionProcCounts {
			baseline := map[string]float64{}
			for _, ways := range ContentionSweep {
				fmt.Fprintf(w, "%-7s %5d %-8s |", name, procs, contentionLabel(ways))
				for _, c := range r.contentionColumns(v) {
					res, err := r.ContentionRun(a, c.ver, procs, c.prot, ways)
					if err != nil {
						return fmt.Errorf("%s/%s procs=%d %s: %w", name, c.ver, procs, contentionLabel(ways), err)
					}
					if base, ok := baseline[c.col]; !ok {
						baseline[c.col] = res.Checksum
					} else if res.Checksum != base {
						return fmt.Errorf("contention changed the answer: %s/%s procs=%d %s checksum %g != ideal %g",
							name, c.ver, procs, contentionLabel(ways), res.Checksum, base)
					}
					fmt.Fprintf(w, " %13v %12v |", res.Time, res.QueueTime())
				}
				fmt.Fprintln(w)
			}
		}
	}
	fmt.Fprintln(w, "(qd = queueing delay summed over nodes; checksums verified identical across the sweep for every column)")
	return nil
}
