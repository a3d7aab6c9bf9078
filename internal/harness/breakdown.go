package harness

import (
	"fmt"
	"io"

	"repro/internal/exp"
)

// breakdown prints the per-node virtual-time attribution of every
// figure version of every application: each run's timed window
// decomposed into compute, page-fault stall, barrier wait, lock wait,
// explicit message wait and contention queueing, as percentages of the
// window. The decomposition is exact (the observability layer asserts
// the components sum to the window), so the table is the reproduction's
// counterpart of the paper's §5/§6 "where does the time go" analysis —
// but measured from the event trace rather than from per-subsystem
// timers. It reads observed records (bd_* fields), so it needs an
// observing engine.
var breakdown = Table{Name: "breakdown", Observe: true, Specs: figureSpecs(breakdownApps), Render: renderBreakdown}

// breakdownApps are the paper's applications in its order.
var breakdownApps = append(append([]string{}, RegularApps...), IrregularApps...)

func renderBreakdown(w io.Writer, base exp.Spec, recs []exp.Record) error {
	res := index(recs)
	fmt.Fprintf(w, "Time attribution: percent of summed node time by category%s\n", scaleNote(base.Scale))
	fmt.Fprintf(w, "%-9s %-6s | %8s | %7s %7s %7s %7s %7s %7s %7s\n",
		"App", "ver", "time (s)", "compute", "fault", "barrier", "lock", "data", "queue", "other")
	fmt.Fprintln(w, "--------------------------------------------------------------------------------------------")
	for _, name := range breakdownApps {
		for _, v := range FigureVersions {
			rec := res.of(at(base, name, v))
			if rec.BDTotalNanos == 0 {
				continue // not observed
			}
			pct := func(part int64) float64 { return 100 * float64(part) / float64(rec.BDTotalNanos) }
			fmt.Fprintf(w, "%-9s %-6s | %8.2f | %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
				name, v, rec.TimeSeconds, pct(rec.BDComputeNanos), pct(rec.BDFaultNanos), pct(rec.BDBarrierNanos),
				pct(rec.BDLockNanos), pct(rec.BDDataNanos), pct(rec.BDQueueNanos), pct(rec.BDOtherNanos))
		}
	}
	return nil
}
