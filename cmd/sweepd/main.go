// Command sweepd is the sweep-fabric worker daemon: it serves leased
// spec ranges to a dsmrun -fabric coordinator over HTTP, executing
// them through the internal/exp engine (spec-keyed result cache
// intact) and streaming back stamped JSON-lines records.
//
//	sweepd -listen :9190 [-store DIR]
//
// Endpoints:
//
//	GET  /healthz   — registration handshake: {"ok":true,"schema_version":N}.
//	                  Coordinators refuse workers whose schema_version
//	                  differs from their own build's (satellite: mismatched
//	                  builds are rejected, never silently merged).
//	POST /run       — one lease: {"schema_version":N,"lease":ID,"keys":[...]}
//	                  answered with one stamped record per key, in key
//	                  order, as NDJSON. Malformed requests get 400.
//	/metrics        — JSON telemetry: the fabric_worker lease/record
//	                  counters plus the engines' host telemetry, whose
//	                  runs_resolved of runs_planned is the worker's
//	                  progress over every lease it has taken.
//	/debug/pprof/*  — live profiling of the worker process.
//
// The engine's host worker pool is GOMAXPROCS wide: set that variable
// to bound it.
//
// -store DIR backs the worker with the persistent result store (see
// dsmrun -store): leased specs whose record is already on disk stream
// back without executing, and executed records are written back, so a
// warm worker answers a repeated sweep from disk. Written records are
// fsynced at the end of each lease, not one by one.
//
// Shutdown: on SIGINT or SIGTERM the daemon drains — new leases (and
// health checks) answer 503 so the coordinator reassigns around it,
// the in-flight lease streams to completion, and the store is synced
// and closed — then exits 0. A second signal, or a drain exceeding
// -drain-timeout, exits immediately: every finished lease was synced
// when it ended and the interrupted lease's appends are already in the
// page cache, so the exit itself loses nothing, and after a power loss
// at worst that lease's tail is recomputed next time.
//
// Fault injection (CI only):
//
//	sweepd -listen :9191 -kill-after 3
//
// -kill-after N exits the process (status 3) after streaming N
// records, mid-lease and mid-stream — the crash the fabric-smoke job
// uses to prove lease reassignment keeps merged output byte-identical.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
)

func main() {
	listen := flag.String("listen", ":9190", "address to serve the worker endpoints on")
	storeDir := flag.String("store", "", "persistent result store directory: serve leased specs from disk (and write executed records back)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound on finishing the in-flight lease")
	killAfter := flag.Int64("kill-after", 0, "fault injection: exit(3) after streaming this many records (0: never)")
	flag.Parse()

	m := new(expvar.Map)
	w := fabric.NewWorker(m)
	w.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sweepd: "+format+"\n", args...)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, exp.StoreOptions(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
		w.Store = st // Drain closes it
	}
	if *killAfter > 0 {
		w.KillAfterRecords = *killAfter
		// A whole-process kill, not the in-process default: the stream
		// cuts off exactly where a crashed machine would cut it off.
		w.Kill = func() { os.Exit(3) }
	}

	mux := metrics.NewMux(m, w.Routes())
	_, addr, err := metrics.StartServer(*listen, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "sweepd: serving /healthz, /run and /metrics on http://%s\n", addr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "sweepd: %s: draining (in-flight lease finishes; new leases answer 503)\n", s)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "sweepd: second %s: exiting immediately\n", s)
		os.Exit(1)
	}()
	if err := w.Drain(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "sweepd: drained; store flushed and closed")
}
