// Package metrics serves host-side telemetry: one instance-scoped
// expvar.Map per process whose sections are the layers' own typed
// snapshots (exp.HostStats, sim.HostTotals, store.Stats,
// fabric.FleetSnapshot, the fabric worker's counters), plus the one
// value type no layer keeps itself, a fixed-bucket Histogram.
//
// Host-side means wall-clock seconds, allocated bytes, cache hits —
// properties of the machine *running* the sweeps. Virtual time, traffic
// and checksums belong to the simulated machine and live in
// internal/stats and internal/obs; nothing here may feed back into a
// simulation, and the sweep engines keep their JSON-lines output
// byte-identical whether a map is attached or not.
//
// An expvar.Map keeps its keys sorted and each section marshals a
// struct, so the served bytes are a pure function of the values. No map
// is ever published in expvar's global namespace: two engines in one
// process would collide there.
package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram accumulates observations into fixed buckets. It is an
// expvar.Var: its String is the JSON of its HistogramSnapshot. Every
// method is safe for concurrent use.
type Histogram struct {
	bounds  []float64       // bucket upper bounds, strictly increasing
	counts  []atomic.Uint64 // per bucket; the last one is the overflow
	sumBits atomic.Uint64   // float64 bits of the observation sum
}

// HistogramSnapshot is a histogram's JSON form: the bucket upper
// bounds, one count per bucket plus the overflow bucket (so
// len(Counts) == len(Bounds)+1; counts are not cumulative), the total
// count and the observation sum. Count is the sum of Counts.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// NewHistogram builds a histogram with n exponentially spaced bucket
// upper bounds starting at start, each factor times the previous.
func NewHistogram(start, factor float64, n int) *Histogram {
	if start <= 0 || factor <= 1 || n < 1 || math.IsInf(start, 0) {
		panic("metrics: NewHistogram wants a finite start > 0, factor > 1, n >= 1")
	}
	h := &Histogram{bounds: make([]float64, n), counts: make([]atomic.Uint64, n+1)}
	for i, b := 0, start; i < n; i, b = i+1, b*factor {
		h.bounds[i] = b
	}
	return h
}

// Observe records one sample. A sample equal to a bound lands in that
// bound's bucket; one above every bound lands in the overflow bucket.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot reads the histogram. Each bucket is read once and Count is
// their sum, so a read concurrent with observations never disagrees
// with itself (the sum may be off by the observations in flight).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// String returns the snapshot's JSON, making Histogram an expvar.Var.
func (h *Histogram) String() string {
	b, _ := json.Marshal(h.Snapshot())
	return string(b)
}
