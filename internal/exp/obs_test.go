package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
)

// obsGrid is the observability test grid: every runtime, both
// protocols, an adaptive-migration case and a contended-network case,
// at the sizes the golden virtual-time tests use.
func obsGrid() []Spec {
	specs := []Spec{
		{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.SmallScale},
		{App: "Jacobi", Version: core.SPF, Procs: 4, Scale: core.SmallScale},
		{App: "Jacobi", Version: core.PVMe, Procs: 4, Scale: core.SmallScale},
		{App: "Jacobi", Version: core.XHPF, Procs: 4, Scale: core.SmallScale},
		{App: "MGS", Version: core.Tmk, Procs: 4, Scale: core.SmallScale, Protocol: proto.HomeLRC},
		{App: "MGS", Version: core.Tmk, Procs: 4, Scale: core.SmallScale, Protocol: proto.HomeLRC, HomePolicy: proto.AdaptivePolicy},
		{App: "MGS", Version: core.Tmk, Procs: 4, Scale: core.SmallScale, Contention: -1},
		{App: "NBF", Version: core.Tmk, Procs: 4, Scale: core.SmallScale},
	}
	for i := range specs {
		if specs[i].Protocol == "" {
			specs[i].Protocol = proto.HomelessLRC
		}
		specs[i] = specs[i].Normalize()
	}
	return specs
}

// TestObserveDoesNotPerturb is the zero-overhead guarantee at the
// engine level: an observing run's virtual time, traffic and numerical
// result are bit-identical to a plain run's. Event emission must never
// advance virtual time.
func TestObserveDoesNotPerturb(t *testing.T) {
	for _, s := range obsGrid() {
		plain := New()
		res, err := plain.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		observing := New()
		observing.Observe = true
		ores, err := observing.Run(s)
		if err != nil {
			t.Fatalf("%s (observed): %v", s.Key(), err)
		}
		if ores.Time != res.Time {
			t.Errorf("%s: observing changed time %v -> %v", s.Key(), res.Time, ores.Time)
		}
		if ores.Checksum != res.Checksum {
			t.Errorf("%s: observing changed checksum %g -> %g", s.Key(), res.Checksum, ores.Checksum)
		}
		if ores.Stats != res.Stats {
			t.Errorf("%s: observing changed traffic stats", s.Key())
		}
		if res.Trace != nil || res.Breakdown != nil {
			t.Errorf("%s: plain run carries observability state", s.Key())
		}
		if ores.Trace == nil || ores.Trace.Len() == 0 {
			t.Errorf("%s: observing run collected no events", s.Key())
		}
	}
}

// TestBreakdownSumsExactly pins the attribution invariant over real
// runs: every node's components sum to its timed window, and the
// engine-level record mirrors the summed breakdown.
func TestBreakdownSumsExactly(t *testing.T) {
	e := New()
	e.Observe = true
	for _, s := range obsGrid() {
		res, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		if len(res.Breakdown) == 0 {
			t.Errorf("%s: no breakdown", s.Key())
			continue
		}
		var total int64
		for _, b := range res.Breakdown {
			if b.Compute+b.WaitSum() != b.Total {
				t.Errorf("%s node %d: compute %d + waits %d != window %d",
					s.Key(), b.Node, b.Compute, b.WaitSum(), b.Total)
			}
			if b.Compute < 0 || b.Fault < 0 || b.Barrier < 0 || b.Lock < 0 ||
				b.Data < 0 || b.Queue < 0 || b.Other < 0 {
				t.Errorf("%s node %d: negative component: %+v", s.Key(), b.Node, b)
			}
			total += b.Total
		}
		if total == 0 {
			t.Errorf("%s: all timed windows empty", s.Key())
		}
		// Contention off means no queueing attribution anywhere.
		if s.Contention == 0 && obs.Sum(res.Breakdown).Queue != 0 {
			t.Errorf("%s: queue attribution without a contention model", s.Key())
		}
		// The record mirrors the sum and revalidates.
		rec := RecordOf(s, res, nil)
		bd := obs.Sum(res.Breakdown)
		if rec.BDTotalNanos != bd.Total || rec.BDComputeNanos != bd.Compute {
			t.Errorf("%s: record bd_* fields disagree with the breakdown sum", s.Key())
		}
		if err := rec.Validate(); err != nil {
			t.Errorf("%s: observed record invalid: %v", s.Key(), err)
		}
	}
	// The contended MGS run must attribute some queueing delay.
	contended, err := e.Run(Spec{App: "MGS", Version: core.Tmk, Procs: 4,
		Scale: core.SmallScale, Protocol: proto.HomelessLRC, Contention: -1}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	if obs.Sum(contended.Breakdown).Queue == 0 {
		t.Error("contended MGS run attributed no queueing delay")
	}
}

// TestGoldenTraceBytes pins the trace exporter end to end: a 2-node
// Jacobi run's Chrome JSON is byte-identical across repeated runs and
// engine worker counts, and passes the trace validator with an event
// count matching the trace.
func TestGoldenTraceBytes(t *testing.T) {
	s := Spec{App: "Jacobi", Version: core.Tmk, Procs: 2,
		Scale: core.SmallScale, Protocol: proto.HomelessLRC}.Normalize()
	render := func(workers int) []byte {
		e := New()
		e.Observe = true
		e.Workers = workers
		// Warm the cache through a stream so the run executes under the
		// given parallelism, then fetch the cached result.
		if _, err := e.StreamWith(io.Discard, []Spec{s}, nil); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		n, err := obs.ValidateChrome(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: invalid trace: %v", workers, err)
		}
		if n != res.Trace.Len() {
			t.Fatalf("workers=%d: validator counted %d events, trace has %d", workers, n, res.Trace.Len())
		}
		return buf.Bytes()
	}
	golden := render(1)
	if len(golden) == 0 {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{1, 4} {
		if !bytes.Equal(render(workers), golden) {
			t.Errorf("workers=%d: trace bytes differ from the serial golden", workers)
		}
	}
}

// TestObserveKeepsSweepBytes pins that the bd_* fields are the *only*
// record difference observability introduces: an observing sweep with
// the fields stripped is byte-identical to a plain sweep.
func TestObserveKeepsSweepBytes(t *testing.T) {
	specs := obsGrid()[:4]
	stream := func(observe bool) []Record {
		e := New()
		e.Observe = observe
		var buf bytes.Buffer
		if _, err := e.StreamWith(&buf, specs, nil); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		recs := make([]Record, len(lines))
		for i, line := range lines {
			rec, err := ValidateLine(line)
			if err != nil {
				t.Fatalf("observe=%v record %d: %v", observe, i, err)
			}
			recs[i] = rec
		}
		return recs
	}
	plain, observed := stream(false), stream(true)
	if len(plain) != len(observed) {
		t.Fatalf("record counts differ: %d vs %d", len(plain), len(observed))
	}
	for i := range observed {
		if observed[i].BDTotalNanos == 0 {
			t.Errorf("%s: observing sweep emitted no bd_* fields", observed[i].Key())
		}
		stripped := observed[i]
		stripped.BDTotalNanos, stripped.BDComputeNanos = 0, 0
		stripped.BDFaultNanos, stripped.BDBarrierNanos = 0, 0
		stripped.BDLockNanos, stripped.BDDataNanos = 0, 0
		stripped.BDQueueNanos, stripped.BDOtherNanos = 0, 0
		sj, _ := json.Marshal(stripped)
		pj, _ := json.Marshal(plain[i])
		if !bytes.Equal(sj, pj) {
			t.Errorf("%s: observing changed a non-bd_* field:\nplain:    %s\nstripped: %s",
				plain[i].Key(), pj, sj)
		}
	}
}
