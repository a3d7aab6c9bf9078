package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// The protocol-comparison experiment: every application runs under each
// coherence protocol (homeless TreadMarks LRC and home-based LRC) at a
// sweep of node counts. The numerical results must be bit-identical —
// the protocol choice may change only virtual time, message counts and
// byte volumes, which is precisely what the table reports.

// ProtocolProcCounts is the node-count sweep of the protocol experiment.
var ProtocolProcCounts = []int{1, 2, 4, 8}

// DSMVersionOf picks the application's representative DSM version for
// protocol comparisons: the hand-coded TreadMarks version when the
// application has one, otherwise the compiler-generated SPF version.
func DSMVersionOf(a core.App) core.Version {
	for _, v := range a.Versions() {
		if v == core.Tmk {
			return core.Tmk
		}
	}
	return core.SPF
}

// DSMVersions filters an application's versions to those that run on
// the DSM and therefore under a coherence protocol (core.Runtime.OnDSM)
// — including the optimized and legacy-interface variants, whose push/
// broadcast/aggregation paths interact with the protocol differently
// than the base versions do.
func DSMVersions(a core.App) []core.Version {
	var out []core.Version
	for _, v := range a.Versions() {
		if core.Describe(v).Runtime.OnDSM() {
			out = append(out, v)
		}
	}
	return out
}

// sub derives a runner with the same calibration at a different node
// count and protocol. Sub-runners share the parent's engine — the
// result cache is keyed by the full spec, so runs never collide and
// every experiment reuses everything already computed.
func (r *Runner) sub(procs int, p proto.Name) *Runner {
	return &Runner{
		Procs: procs, Scale: r.Scale, Costs: r.Costs, App: r.App,
		Protocol: p, HomePolicy: r.HomePolicy, Workers: r.Workers, eng: r.Engine(),
	}
}

// policySub derives a runner at the given node count and home policy,
// pinned to the home-based protocol (the only one with homes), sharing
// the parent's engine.
func (r *Runner) policySub(procs int, pol proto.PolicyName) *Runner {
	nr := r.sub(procs, proto.HomeLRC)
	nr.HomePolicy = pol
	return nr
}

// ProtocolSpecs renders one (application, version, procs) run under
// every protocol, in proto.Names() order.
func (r *Runner) ProtocolSpecs(a core.App, v core.Version, procs int) []exp.Spec {
	specs := make([]exp.Spec, 0, len(proto.Names()))
	for _, p := range proto.Names() {
		specs = append(specs, r.sub(procs, p).Spec(a.Name(), v))
	}
	return specs
}

// RunProtocols executes one (application, version, procs) run under
// every protocol and returns the results in proto.Names() order.
func (r *Runner) RunProtocols(a core.App, v core.Version, procs int) ([]core.Result, error) {
	out, err := r.Sweep(r.ProtocolSpecs(a, v, procs))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	return out, nil
}

// Protocols prints the protocol-comparison experiment and verifies the
// cross-protocol result equivalence as it goes: a checksum divergence is
// an error, not a table entry. The whole (app × procs × protocol) grid
// is swept through the engine up front, saturating host cores.
func Protocols(w io.Writer, r *Runner) error {
	var specs []exp.Spec
	for _, a := range exp.PaperApps() {
		for _, procs := range ProtocolProcCounts {
			specs = append(specs, r.ProtocolSpecs(a, DSMVersionOf(a), procs)...)
		}
	}
	if _, err := r.Sweep(specs); err != nil {
		return err
	}
	fmt.Fprintf(w, "Protocol comparison: homeless LRC (lrc) vs home-based LRC (hlrc)%s\n", scaleNote(r.Scale))
	fmt.Fprintf(w, "%-9s %-8s %5s |", "App", "version", "procs")
	for _, p := range proto.Names() {
		fmt.Fprintf(w, " %10s(t) %9s(msg) %7s(KB) |", p, p, p)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "--------------------------------------------------------------------------------------------------")
	for _, a := range exp.PaperApps() {
		v := DSMVersionOf(a)
		for _, procs := range ProtocolProcCounts {
			results, err := r.RunProtocols(a, v, procs)
			if err != nil {
				return err
			}
			for _, res := range results[1:] {
				if res.Checksum != results[0].Checksum {
					return fmt.Errorf("protocol divergence: %s/%s procs=%d: %s checksum %g != %s checksum %g",
						a.Name(), v, procs, res.Protocol, res.Checksum, results[0].Protocol, results[0].Checksum)
				}
			}
			fmt.Fprintf(w, "%-9s %-8s %5d |", a.Name(), v, procs)
			for _, res := range results {
				fmt.Fprintf(w, " %13v %14d %11d |", res.Time, res.Stats.TotalMsgs(), res.Stats.TotalKB())
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "(checksums verified bit-identical across protocols for every row)")
	return nil
}
