package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/sim"
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

// contentionApps are the applications of the contention sweep: the
// regular control (halo exchanges) and the two irregular applications
// (broadcast storms).
var contentionApps = []string{"Jacobi", "IGrid", "NBF"}

// contentionProcCounts is the node-count sweep.
var contentionProcCounts = []int{1, 2, 4, 8}

// contentionSweep lists the swept backplane capacities: 0 is the ideal
// infinite-capacity interconnect (contention off — the pre-contention
// model), -1 enables the serial NICs over an ideal backplane, and a
// positive value additionally bounds the backplane to that many
// concurrent full-rate transfers.
var contentionSweep = []int{0, -1, 4, 1}

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

// contentionColumn is one per-row run of the contention table.
type contentionColumn struct {
	col  string
	ver  core.Version
	prot proto.Name
}

// contentionColumns are the per-row runs of the contention table. The
// message-passing columns carry the base protocol like any other spec
// of its tables: they do not read it, and the engine runs them once
// whatever it says (exp.Spec.Canonical).
func contentionColumns(v core.Version, p proto.Name) []contentionColumn {
	return []contentionColumn{
		{"tmk/lrc", v, proto.HomelessLRC},
		{"tmk/hlrc", v, proto.HomeLRC},
		{"xhpf", core.XHPF, p},
		{"pvme", core.PVMe, p},
	}
}

// contention prints the contention sweep. Per row (app, procs, sweep
// point) it reports virtual time and total queueing delay for the
// hand-coded TreadMarks version under both protocols, XHPF, and PVMe.
// Checksums must not depend on the contention point — queueing delays
// messages but never reorders matching ones — so a column whose
// checksum differs from its ideal-interconnect run (exp.Agree) refuses
// the table.
// The base contention (dsmrun -contention) is separate: it puts every
// other table on the contended SP/2.
var contention = Table{Name: "contention", Specs: contentionSpecs, Render: renderContention}

func contentionSpecs(base exp.Spec) (specs []exp.Spec) {
	for _, name := range contentionApps {
		v := DSMVersionOf(mustApp(name))
		for _, procs := range contentionProcCounts {
			for _, ways := range contentionSweep {
				for _, c := range contentionColumns(v, base.Protocol) {
					s := base
					s.Protocol, s.Contention = c.prot, ways
					specs = append(specs, atProcs(s, name, c.ver, procs))
				}
			}
		}
	}
	return specs
}

func renderContention(w io.Writer, base exp.Spec, recs []exp.Record) error {
	cols := len(contentionColumns("", "")) // each row's records, consecutive
	block := len(contentionSweep) * cols   // each (app, procs)'s rows
	for b := 0; b < len(recs); b += block {
		for row := b + cols; row < b+block; row++ { // each column down the sweep, against its ideal run
			if err := exp.Agree(recs[row], recs[b+(row-b)%cols]); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "Network contention: serial NICs + backplane sweep%s\n", scaleNote(base.Scale))
	fmt.Fprintf(w, "%-7s %5s %-8s |", "App", "procs", "switch")
	for _, c := range contentionColumns("", "") {
		fmt.Fprintf(w, " %10s(t) %8s(qd) |", c.col, c.col)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "--------------------------------------------------------------------------------------------------------------------")
	for row := 0; row < len(recs); row += cols {
		first := recs[row]
		fmt.Fprintf(w, "%-7s %5d %-8s |", first.App, first.Procs, contentionLabel(first.Contention))
		for _, rec := range recs[row : row+cols] {
			fmt.Fprintf(w, " %13v %12v |", sim.Time(rec.TimeNanos), sim.Time(rec.QueueNanos))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(qd = queueing delay summed over nodes; checksums verified identical across the sweep for every column)")
	return nil
}
