// Where software DSM wins: the paper's irregular applications.
//
// IGrid and NBF access data through run-time indirection (a stencil map,
// molecular partner lists), which compile-time analysis cannot see. The
// XHPF compiler falls back to broadcasting every processor's whole
// partition after every step; TreadMarks just faults in the pages that
// are actually touched and caches them. This example prints the Table 3
// blow-up and the Figure 2 speedups side by side. Run with:
//
//	go run ./examples/irregular [-procs 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
)

func main() {
	procs := flag.Int("procs", 8, "processors")
	flag.Parse()

	e := exp.New()
	for _, name := range harness.IrregularApps {
		at := func(v core.Version) exp.Spec {
			return exp.Spec{App: name, Version: v, Procs: *procs, Scale: core.MidScale}.Normalize()
		}
		seq, err := e.Run(at(core.Seq))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s (sequential %v)\n", name, seq.Time)
		fmt.Printf("  %-8s | %8s | %8s | %12s\n", "version", "speedup", "msgs", "data (KB)")
		var dsmKB, xhpfKB int64
		for _, v := range harness.FigureVersions {
			res, err := e.Run(at(v))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("  %-8s | %8.2f | %8d | %12d\n",
				v, res.Speedup(seq.Time), res.Stats.TotalMsgs(), res.Stats.TotalKB())
			if v == core.Tmk {
				dsmKB = res.Stats.TotalKB()
			}
			if v == core.XHPF {
				xhpfKB = res.Stats.TotalKB()
			}
		}
		if dsmKB > 0 {
			fmt.Printf("  -> XHPF ships %dx the data TreadMarks does\n\n", xhpfKB/dsmKB)
		}
	}
}
