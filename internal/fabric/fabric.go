// Package fabric distributes a sweep across worker processes: a
// Coordinator lists the distinct runs its spec list needs (each
// canonical execution, and under the baseline join each sequential
// baseline, once), splits that list into contiguous leased ranges,
// assigns them over HTTP to Workers (cmd/sweepd daemons), and merges the
// workers' JSON-lines record streams back into spec order, relabelling
// each run's record with the spec that asked for it and joining its
// baseline. The merged output is byte-identical to a single-process
// sweep of the same specs at any worker count — the same invariant
// internal/exp proves for in-process workers, carried across process
// and machine boundaries.
//
// Robustness is the design center, not an afterthought:
//
//   - A range has one holder at a time, and every lease has a deadline.
//     A worker that crashes, hangs past the deadline, or streams
//     malformed records loses the lease, and the range returns to the
//     pending queue for reassignment.
//   - Workers that fail repeatedly are retired; ranges that exhaust
//     their remote attempts fall back to local execution, and a
//     coordinator with no registered workers at all degrades to a plain
//     local sweep. The output bytes are identical on every path.
//   - Coordinator and workers exchange exp.SchemaVersion in the
//     /healthz handshake and stamp it on every wire record, so
//     mismatched builds are rejected instead of silently merged.
//
// The wire protocol is two HTTP endpoints on each worker:
//
//	GET /healthz
//	  -> {"ok":true,"schema_version":N}
//
//	POST /run   {"schema_version":N,"lease":"r0-4.1","observe":true,
//	             "keys":["app=Jacobi|version=seq|procs=1|...",
//	                     "app=Jacobi|version=xhpf|procs=2|..."]}
//	  -> one exp.Record JSON line per key, in key order, each stamped
//	     with schema_version; the stream ends after exactly len(keys)
//	     records. Fewer records mean the worker died mid-range; the
//	     coordinator treats short, over-long, misordered and malformed
//	     streams identically — the lease failed.
//
// A lease's keys are canonical runs (exp.Spec.Canonical; exp.Spec.Key
// round-trips exactly through exp.ParseKey), asked for unjoined: the
// coordinator joins at the merge. A worker still honours "speedup":true
// and label keys, which is what older coordinators send. Run failures
// travel as ordinary error records, so a distributed sweep fails with
// the same accounting as a local one.
package fabric

import "strings"

// Wire endpoint paths served by every worker.
const (
	HealthPath = "/healthz"
	RunPath    = "/run"
)

// Hello is the /healthz handshake body. A coordinator only registers
// workers whose SchemaVersion matches its own build.
type Hello struct {
	OK            bool `json:"ok"`
	SchemaVersion int  `json:"schema_version"`
}

// RunRequest leases one range of runs to a worker. Keys are spec keys
// in range order; the worker must answer with exactly one stamped
// record per key, in the same order, labelled with that key's spec.
type RunRequest struct {
	SchemaVersion int    `json:"schema_version"`
	Lease         string `json:"lease"`
	// Speedup asks the worker to join each non-seq record with its
	// sequential baseline, as exp.Engine.JoinSpeedup does. A coordinator
	// leases the baselines as runs of their own and joins at the merge,
	// so it leaves this false; the worker honours it for older
	// coordinators, which sent it set. Observe attaches the bd_* time
	// attribution a local sweep with Observe carries.
	Speedup bool     `json:"speedup,omitempty"`
	Observe bool     `json:"observe,omitempty"`
	Keys    []string `json:"keys"`
}

// NormalizeAddr turns a bare host:port into a base URL (http scheme)
// and strips any trailing slash; addresses that already carry a scheme
// pass through.
func NormalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr != "" && !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}
