// Command sweeplint validates a JSON-lines sweep stream (the output of
// `dsmrun -sweep ...`) against the internal/exp record schema: every
// line must parse strictly (unknown fields rejected), carry a coherent
// spec, and keep its measurements internally consistent (queue splits
// covering totals, time_seconds agreeing with time_ns, finite
// checksums). Records whose "error" field is set count as run failures.
//
// Usage:
//
//	dsmrun -scale small -sweep "procs=1,2 protocol=lrc,hlrc" | sweeplint [-n expected] [-speedup]
//
// With -speedup every non-seq, non-error record must additionally carry
// the sequential-baseline join fields (seq_ns/seq_seconds/speedup, as
// emitted by `dsmrun -sweep ... -speedup`); their internal consistency
// is part of the schema and checked always.
//
// With -require-schema every record must carry a schema_version field
// matching this build's (a mismatched stamp always fails validation;
// the flag additionally rejects records with no stamp at all). This is
// the sweep fabric's wire format — workers stamp every streamed record
// so coordinators from a different build reject the stream instead of
// silently merging it; CI pipes a worker's raw /run stream through
// `sweeplint -require-schema`. Merged fabric output is unstamped, like
// any local sweep.
//
// Exit status: 0 when every record validates and none carries an error
// (and the count matches -n, if given); 1 otherwise. CI's sweep smoke
// job pipes a tiny cross-product through it.
//
// Trace mode:
//
//	dsmrun ... -trace out.json && sweeplint -trace < out.json
//
// -trace switches the input schema from JSON-lines sweep records to one
// Chrome trace_event JSON document (the output of `dsmrun -trace`):
// a traceEvents array whose entries carry a name and phase, pid/tid/ts
// on every non-metadata event and a non-negative dur on complete
// events. CI's trace smoke step pipes a 4-node run's trace through it.
//
// Store mode:
//
//	sweeplint -store results/
//
// -store DIR audits a persistent result store (the directory dsmrun
// and sweepd take as -store) instead of stdin: every live entry's
// frame CRC is re-verified, its value re-validated against the record
// schema (no wire stamp, no error, no join fields — the exact
// invariants the engine enforces before serving), and its key checked against the record's spec. Dead bytes
// from corrupt or superseded frames and schema-mismatched entries are
// reported; any corrupt frame or invalid value exits 1. Segment and
// temp files a crashed compaction left beside the live segment are
// removed by opening the store and reported, not failed. A store that
// healed itself (corruption detected, entry recomputed and compacted
// away) lints clean.
//
// Metrics mode:
//
//	curl -s http://localhost:9090/metrics | sweeplint -metrics
//
// -metrics validates a telemetry JSON document instead (what
// `dsmrun -metrics-addr`'s /metrics serves and -metrics-dump writes):
// it must decode strictly into the known sections (engine, sim, store,
// fabric, fabric_worker and the histograms), with no unknown section or
// field, and every histogram's bounds must ascend and its bucket counts
// sum to its count. CI's telemetry smoke scrapes a live sweep and pipes
// the scrape through it. -n checks the section count.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	expected := flag.Int("n", -1, "expected record count (-1: any)")
	speedup := flag.Bool("speedup", false, "require the seq-baseline join fields on every non-seq record")
	requireSchema := flag.Bool("require-schema", false, "require this build's schema_version stamp on every record (fabric wire streams)")
	trace := flag.Bool("trace", false, "validate a Chrome trace_event JSON document instead of sweep records")
	metricsText := flag.Bool("metrics", false, "validate a telemetry JSON document (a /metrics scrape or -metrics-dump file) instead of sweep records")
	storeDir := flag.String("store", "", "audit this persistent result store directory instead of reading stdin")
	flag.Parse()

	if *storeDir != "" {
		if err := lintStore(*storeDir, *expected); err != nil {
			fmt.Fprintf(os.Stderr, "sweeplint: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *metricsText {
		sections, err := validateMetrics(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweeplint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("sweeplint: valid metrics document, %d sections\n", sections)
		if *expected >= 0 && sections != *expected {
			fmt.Fprintf(os.Stderr, "sweeplint: got %d sections, want %d\n", sections, *expected)
			os.Exit(1)
		}
		return
	}

	if *trace {
		events, err := obs.ValidateChrome(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweeplint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("sweeplint: valid trace, %d events\n", events)
		if *expected >= 0 && events != *expected {
			fmt.Fprintf(os.Stderr, "sweeplint: got %d events, want %d\n", events, *expected)
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	records, failures, invalid := 0, 0, 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		records++
		rec, err := exp.ValidateLine(line)
		if err != nil {
			invalid++
			fmt.Fprintf(os.Stderr, "sweeplint: record %d: %v\n", records, err)
			continue
		}
		// The stamp check comes before the error check: fabric workers
		// stamp error records too.
		if *requireSchema && rec.SchemaVersion != exp.SchemaVersion {
			invalid++
			fmt.Fprintf(os.Stderr, "sweeplint: record %d (%s): schema_version %d, want %d (-require-schema)\n",
				records, rec.Key(), rec.SchemaVersion, exp.SchemaVersion)
		}
		if rec.Error != "" {
			failures++
			fmt.Fprintf(os.Stderr, "sweeplint: record %d (%s): run failed: %s\n", records, rec.Key(), rec.Error)
			continue
		}
		if *speedup && rec.Version != core.Seq && rec.Speedup == 0 {
			invalid++
			fmt.Fprintf(os.Stderr, "sweeplint: record %d (%s): missing seq-baseline join (-speedup)\n", records, rec.Key())
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "sweeplint: read: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("sweeplint: %d records, %d invalid, %d failed runs\n", records, invalid, failures)
	if invalid > 0 || failures > 0 {
		os.Exit(1)
	}
	if *expected >= 0 && records != *expected {
		fmt.Fprintf(os.Stderr, "sweeplint: got %d records, want %d\n", records, *expected)
		os.Exit(1)
	}
}

// lintStore audits a persistent result store: frame CRCs, record
// schema, the serve-side invariants, and key/record agreement.
func lintStore(dir string, expected int) error {
	st, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		return err
	}
	defer st.Close()
	rep, err := st.Verify(func(key string, value []byte) error {
		err := checkStoredRecord(key, value)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweeplint: store entry %q: %v\n", key, err)
		}
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("sweeplint: store %s: %d records, %d bytes, %d corrupt frames, %d schema-mismatched, %d invalid values, %d orphan files removed\n",
		dir, rep.Entries, rep.Bytes, rep.CorruptFrames, rep.SchemaSkips, rep.BadValues, st.Stats().Orphans)
	if rep.CorruptFrames > 0 || rep.BadValues > 0 {
		return fmt.Errorf("store has %d corrupt frames and %d invalid values", rep.CorruptFrames, rep.BadValues)
	}
	if expected >= 0 && rep.Entries != expected {
		return fmt.Errorf("got %d records, want %d", rep.Entries, expected)
	}
	return nil
}

// checkStoredRecord enforces what the engine guarantees before serving
// a stored entry: a strictly-valid record carrying no wire stamp, error
// or baseline join, under the key its spec derives.
func checkStoredRecord(key string, value []byte) error {
	rec, err := exp.ValidateLine(value)
	if err != nil {
		return err
	}
	switch {
	case rec.SchemaVersion != 0:
		return fmt.Errorf("carries wire stamp %d", rec.SchemaVersion)
	case rec.Error != "":
		return fmt.Errorf("carries a run error: %s", rec.Error)
	case rec.SeqNanos != 0 || rec.SeqSeconds != 0 || rec.Speedup != 0:
		return fmt.Errorf("carries a speedup join")
	case rec.Key() != strings.TrimSuffix(key, exp.StoreObserveSuffix):
		return fmt.Errorf("keyed for spec %s", rec.Key())
	}
	return nil
}
