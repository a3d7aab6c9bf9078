package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// telemetryDoc is every section a telemetry map may carry: the typed
// snapshot each layer sets, and the histograms beside them.
type telemetryDoc struct {
	Engine         exp.HostStats                        `json:"engine"`
	Sim            sim.HostStats                        `json:"sim"`
	Store          exp.StoreTelemetry                   `json:"store"`
	RunHostSeconds map[string]metrics.HistogramSnapshot `json:"run_host_seconds"`
	RunAllocBytes  map[string]metrics.HistogramSnapshot `json:"run_alloc_bytes"`
	Fabric         fabric.FleetSnapshot                 `json:"fabric"`
	FabricWorker   fabric.WorkerCounters                `json:"fabric_worker"`
}

// validateMetrics checks one telemetry document (a /metrics scrape or
// a -metrics-dump file): a strict decode that rejects an unknown
// section or field, then that no count exceeds its bound (runs started
// or planned, the fabric's totals), and every histogram's shape —
// ascending bounds, one count per bucket plus the overflow, and counts
// summing to its count. It returns the number of sections.
func validateMetrics(r io.Reader) (int, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(b, &sections); err != nil {
		return 0, fmt.Errorf("metrics document: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var doc telemetryDoc
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("metrics document: %v", err)
	}
	// The layers read a count before its bound: a live scrape holds too.
	switch e, f := doc.Engine, doc.Fabric; {
	case e.RunsCompleted > e.RunsStarted:
		return 0, fmt.Errorf("engine.runs_completed %d exceeds runs_started %d", e.RunsCompleted, e.RunsStarted)
	case e.RunsResolved > e.RunsPlanned:
		return 0, fmt.Errorf("engine.runs_resolved %d exceeds runs_planned %d", e.RunsResolved, e.RunsPlanned)
	case f.RecordsDone > f.RecordsTotal:
		return 0, fmt.Errorf("fabric.records_done %d exceeds records_total %d", f.RecordsDone, f.RecordsTotal)
	case f.RangesDone > f.RangesTotal:
		return 0, fmt.Errorf("fabric.ranges_done %d exceeds ranges_total %d", f.RangesDone, f.RangesTotal)
	}
	hists := map[string]metrics.HistogramSnapshot{}
	for key, h := range doc.RunHostSeconds {
		hists["run_host_seconds "+key] = h
	}
	for key, h := range doc.RunAllocBytes {
		hists["run_alloc_bytes "+key] = h
	}
	for name, h := range hists {
		if err := checkHistogram(h); err != nil {
			return 0, fmt.Errorf("histogram %s: %v", name, err)
		}
	}
	return len(sections), nil
}

// checkHistogram checks one histogram snapshot's shape.
func checkHistogram(h metrics.HistogramSnapshot) error {
	if len(h.Bounds) == 0 {
		return fmt.Errorf("no buckets")
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("%d counts for %d bounds, want one more (the overflow bucket)", len(h.Counts), len(h.Bounds))
	}
	for i := 1; i < len(h.Bounds); i++ {
		if !(h.Bounds[i-1] < h.Bounds[i]) {
			return fmt.Errorf("bounds do not ascend at %d: %g then %g", i, h.Bounds[i-1], h.Bounds[i])
		}
	}
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n != h.Count {
		return fmt.Errorf("count %d, buckets sum to %d", h.Count, n)
	}
	return nil
}
