package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
	"repro/internal/sim"
)

// The protocol-comparison experiment: every application runs under each
// coherence protocol (homeless TreadMarks LRC and home-based LRC) at a
// sweep of node counts. The numerical results must be bit-identical —
// the protocol choice may change only virtual time, message counts and
// byte volumes, which is precisely what the table reports.

// protocolProcCounts is the node-count sweep of the protocol experiment.
var protocolProcCounts = []int{1, 2, 4, 8}

// dsmVersionOf picks the application's representative DSM version for
// protocol comparisons: the hand-coded TreadMarks version when the
// application has one, otherwise the compiler-generated SPF version.
func dsmVersionOf(a core.App) core.Version {
	for _, v := range a.Versions() {
		if v == core.Tmk {
			return core.Tmk
		}
	}
	return core.SPF
}

// protocols prints the protocol-comparison experiment: every paper
// application's representative DSM version at each node count under
// every protocol, in proto.Names() order. A checksum that differs
// across protocols (exp.Agree) refuses the table. The base protocol
// (dsmrun -protocol; lrc, the paper's, by default) is the one every
// other table runs under.
var protocols = Table{Name: "protocols", Specs: protocolSpecs, render: renderProtocols}

func protocolSpecs(base exp.Spec) (specs []exp.Spec) {
	for _, a := range exp.PaperApps() {
		for _, procs := range protocolProcCounts {
			for _, p := range proto.Names() {
				s := base
				s.Protocol = p
				specs = append(specs, atProcs(s, a.Name(), dsmVersionOf(a), procs))
			}
		}
	}
	return specs
}

func renderProtocols(w io.Writer, base exp.Spec, recs []exp.Record) error {
	n := len(proto.Names()) // each row's records, consecutive
	for row := 0; row < len(recs); row += n {
		for _, got := range recs[row+1 : row+n] {
			if err := exp.Agree(got, recs[row]); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "Protocol comparison: homeless LRC (lrc) vs home-based LRC (hlrc)%s\n", scaleNote(base.Scale))
	fmt.Fprintf(w, "%-9s %-8s %5s |", "App", "version", "procs")
	for _, p := range proto.Names() {
		fmt.Fprintf(w, " %10s(t) %9s(msg) %7s(KB) |", p, p, p)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "--------------------------------------------------------------------------------------------------")
	for row := 0; row < len(recs); row += n {
		fmt.Fprintf(w, "%-9s %-8s %5d |", recs[row].App, recs[row].Version, recs[row].Procs)
		for _, rec := range recs[row : row+n] {
			fmt.Fprintf(w, " %13v %14d %11d |", sim.Time(rec.TimeNanos), rec.Msgs, rec.Bytes/1024)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(checksums verified bit-identical across protocols for every row)")
	return nil
}
