// Jacobi, four ways: the paper's central comparison on one application.
//
// Runs the same 4-point stencil solver as compiler-generated shared
// memory (SPF→TreadMarks), hand-coded TreadMarks, compiler-generated
// message passing (XHPF), and hand-coded message passing (PVMe), and
// prints Figure 1's story: on a regular application, message passing
// wins, and most of the DSM gap is data aggregation (compare spf with
// spf-opt). Run with:
//
//	go run ./examples/jacobi [-n 1024] [-iters 20] [-procs 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	n := flag.Int("n", 1024, "grid size")
	iters := flag.Int("iters", 20, "timed iterations")
	procs := flag.Int("procs", 8, "processors")
	flag.Parse()

	app := jacobi.New()
	r := harness.NewRunner(*procs, core.MidScale)
	cfg := r.Config(app, *procs)
	cfg.N1, cfg.Iters = *n, *iters

	seqCfg := cfg
	seqCfg.Procs = 1
	seq, err := app.Run(core.Seq, seqCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("sequential: %v (checksum %.6g)\n\n", seq.Time, seq.Checksum)
	fmt.Printf("%-8s | %8s | %8s | %10s | %8s\n", "version", "speedup", "msgs", "data (KB)", "check")
	fmt.Println("------------------------------------------------------")
	for _, v := range []core.Version{core.SPF, core.Tmk, core.XHPF, core.PVMe, core.SPFOpt} {
		res, err := app.Run(v, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ok := "ok"
		if res.Checksum != seq.Checksum {
			ok = "MISMATCH"
		}
		fmt.Printf("%-8s | %8.2f | %8d | %10d | %8s\n",
			v, res.Speedup(seq.Time), res.Stats.TotalMsgs(), res.Stats.TotalKB(), ok)
	}
}
