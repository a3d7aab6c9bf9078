package exp

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// TestSweepDeterminism is the engine's central guarantee: a parallel
// sweep with N workers produces byte-identical JSON-lines to a serial
// run of the same specs. Each engine gets a cold cache so every run
// actually executes under the given parallelism.
func TestSweepDeterminism(t *testing.T) {
	specs := testGrid()

	var serial bytes.Buffer
	es := New()
	es.Workers = 1
	if _, err := es.StreamWith(&serial, specs, nil); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		var parallel bytes.Buffer
		ep := New()
		ep.Workers = workers
		if _, err := ep.StreamWith(&parallel, specs, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Errorf("workers=%d: JSON-lines differ from serial run:\nserial:\n%s\nparallel:\n%s",
				workers, serial.String(), parallel.String())
		}
	}

	// One record per spec, each schema-valid, in spec order.
	lines := bytes.Split(bytes.TrimSpace(serial.Bytes()), []byte("\n"))
	if len(lines) != len(specs) {
		t.Fatalf("emitted %d records for %d specs", len(lines), len(specs))
	}
	for i, line := range lines {
		rec, err := ValidateLine(line)
		if err != nil {
			t.Errorf("record %d: %v", i, err)
			continue
		}
		if rec.Spec != specs[i] {
			t.Errorf("record %d is %s, want spec order %s", i, rec.Key(), specs[i].Key())
		}
	}
}

// TestConcurrentRunsIndependent hammers one engine with concurrent Run
// calls over a mixed grid (DSM and MP runtimes, both protocols) and
// checks every result matches a fresh serial engine's: simulations
// must share no mutable state.
func TestConcurrentRunsIndependent(t *testing.T) {
	specs := testGrid()
	ref := New()
	refResults := make([]core.Result, len(specs))
	for i, s := range specs {
		r, err := ref.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		refResults[i] = r
	}

	e := New()
	var wg sync.WaitGroup
	errs := make([]error, len(specs)*2)
	results := make([]core.Result, len(specs)*2)
	for round := 0; round < 2; round++ {
		for i := range specs {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				results[slot], errs[slot] = e.Run(specs[i])
			}(round*len(specs)+i, i)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	for round := 0; round < 2; round++ {
		for i, want := range refResults {
			got := results[round*len(specs)+i]
			if got.Time != want.Time || got.Checksum != want.Checksum ||
				got.Stats.TotalMsgs() != want.Stats.TotalMsgs() ||
				got.Stats.TotalBytes() != want.Stats.TotalBytes() {
				t.Errorf("concurrent run of %s diverged: got %v, want %v", specs[i].Key(), got, want)
			}
		}
	}
}

// TestStreamOrderWithContention sweeps the contention axis in parallel
// and checks records stay in axes order with consistent queue splits.
func TestStreamOrderWithContention(t *testing.T) {
	axes := Axes{
		Apps:        []string{"Jacobi"},
		Versions:    []core.Version{core.XHPF, core.PVMe},
		Contentions: []int{0, -1, 1},
	}
	specs := axes.Specs(Spec{Procs: 4, Scale: core.SmallScale})
	e := New()
	var out bytes.Buffer
	if _, err := e.StreamWith(&out, specs, nil); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != len(specs) {
		t.Fatalf("emitted %d records for %d specs", len(lines), len(specs))
	}
	for i, line := range lines {
		rec, err := ValidateLine(line)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Spec != specs[i] {
			t.Errorf("record %d out of order: %s", i, rec.Key())
		}
		if rec.Contention == 0 && rec.QueueNanos != 0 {
			t.Errorf("record %d reports queueing without contention", i)
		}
		if rec.Contention != 0 && rec.QueueNanos == 0 && rec.Procs > 1 {
			t.Logf("note: %s queued nothing (possible but unusual)", rec.Key())
		}
	}
}

func TestRecordValidateRejectsCorruption(t *testing.T) {
	e := New()
	s := Spec{App: "Jacobi", Version: core.PVMe, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC}
	res, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	good := RecordOf(s, res, nil)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := good
	bad.QueueNanos = 7 // split no longer covers the total
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent queue split accepted")
	}
	bad = good
	bad.TimeSeconds = good.TimeSeconds * 2
	if err := bad.Validate(); err == nil {
		t.Error("time_seconds/time_ns disagreement accepted")
	}
	bad = good
	bad.App = "NoSuchApp"
	if err := bad.Validate(); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := ValidateLine([]byte(`{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","wat":1}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
	schema1 := `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","protocol":"lrc","schema_version":1,` +
		`"time_ns":1000,"time_seconds":0.000001,"msgs":4,"bytes":64,"checksum":1,"fault_ns":10,"sync_ns":20,"write_ns":3}`
	if _, err := ValidateLine([]byte(schema1)); err == nil {
		t.Error("schema-1 line with the retired fault_ns/sync_ns/write_ns accepted")
	}
	if _, err := ValidateLine([]byte(`not json`)); err == nil {
		t.Error("malformed line accepted")
	}
}

// TestFullGridSweepDeterminism is the acceptance sweep: the full
// (app × version × procs × protocol) grid — every application, every
// version it supports, 1-4 procs, both protocols — streamed by a
// multi-worker engine must be byte-identical to the serial order.
func TestFullGridSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	var specs []Spec
	for _, a := range Apps() {
		for _, v := range a.Versions() {
			for _, procs := range []int{1, 2, 4} {
				for _, p := range proto.Names() {
					s := Spec{App: a.Name(), Version: v, Procs: procs, Scale: core.SmallScale, Protocol: p}
					specs = append(specs, s.Normalize())
				}
			}
		}
	}
	var serial, parallel bytes.Buffer
	es := New()
	es.Workers = 1
	if _, err := es.StreamWith(&serial, specs, nil); err != nil {
		t.Fatal(err)
	}
	ep := New()
	ep.Workers = 8
	if _, err := ep.StreamWith(&parallel, specs, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Error("full-grid parallel sweep differs from serial output")
	}
	lines := bytes.Split(bytes.TrimSpace(serial.Bytes()), []byte("\n"))
	if len(lines) != len(specs) {
		t.Fatalf("emitted %d records for %d specs", len(lines), len(specs))
	}
	for i, line := range lines {
		if _, err := ValidateLine(line); err != nil {
			t.Errorf("record %d: %v", i, err)
		}
	}
}
