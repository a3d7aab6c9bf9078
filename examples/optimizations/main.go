// The §5 hand optimizations and the §2.3 interface improvement.
//
// The paper closes with the observation that a few mechanical
// optimizations — aggregating data communication, merging
// synchronization with data, eliminating redundant synchronization —
// recover most of the gap between compiler-generated DSM and hand-coded
// message passing. This example reproduces them:
//
//   - Jacobi / 3-D FFT: data aggregation (one request per writer instead
//     of one per page);
//   - Shallow: merging the wrap loops into the main loops (fewer
//     fork-joins) plus aggregation;
//   - MGS: replacing barrier+faults with a broadcast that carries the
//     data (merged synchronization and data);
//   - the fork-join interface ablation: 8(n-1) vs 2(n-1) messages per
//     parallel loop.
//
// Run with:
//
//	go run ./examples/optimizations [-procs 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	procs := flag.Int("procs", 8, "processors")
	flag.Parse()

	r := harness.NewRunner(*procs, core.MidScale)
	if err := harness.HandOpt(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	if err := harness.Interface(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
