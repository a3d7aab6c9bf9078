// Command benchtraj maintains the repository's host trajectory,
// BENCH_host.json: one row per measured commit holding the medians of
// the host benchmark's end-to-end metrics per workload, distilled from
// a result file of `bash bench/run.sh`.
//
//	benchtraj -host BENCH_host.json -result bench/out/result.json -label "PR 17" -commit abc1234
//
// It appends the row and exits 1 when the row is worse than the
// previous one beyond the bounds in BENCHMARK.json, read from the
// working directory, the repository's root (see host.go).
//
// The virtual results — times, traffic, checksums and breakdowns —
// are pinned exactly by one golden record file,
// internal/harness/testdata/golden-small.jsonl (TestGoldenRecords).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	host := flag.String("host", "", "append one row to this host trajectory file (BENCH_host.json) from -result")
	result := flag.String("result", "bench/out/result.json", "the bench/run.sh result file to distill")
	label := flag.String("label", "", "the row's label (e.g. \"PR 17\")")
	commit := flag.String("commit", "", "the commit the result was measured at")
	flag.Parse()

	if *host == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchtraj -host FILE -result FILE -label L -commit C")
		os.Exit(2)
	}
	worse, err := hostAppend(*host, *result, *label, *commit, "BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, w := range worse {
		fmt.Fprintln(os.Stderr, "benchtraj: host regression:", w)
	}
	if len(worse) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchtraj: row %q appended to %s\n", *label, *host)
}
