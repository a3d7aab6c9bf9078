package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRecordSchemaVersion pins the wire-stamp contract: a record with
// no stamp validates (local sweeps never stamp), a record stamped with
// this build's SchemaVersion validates, and any other stamp is
// rejected — mismatched builds must fail validation, never merge.
func TestRecordSchemaVersion(t *testing.T) {
	rec := recordT(t, New(), Spec{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale})
	if err := rec.Validate(); err != nil {
		t.Fatalf("unstamped record: %v", err)
	}
	rec.SchemaVersion = SchemaVersion
	if err := rec.Validate(); err != nil {
		t.Errorf("record stamped with this build's version: %v", err)
	}
	rec.SchemaVersion = SchemaVersion + 1
	err := rec.Validate()
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("mismatched stamp validated: %v", err)
	}
}

// TestSchemaStampKeepsSweepBytes: stamping a decoded record and then
// clearing the stamp must reproduce the original line exactly — the
// fabric strips the wire stamp before merging, and byte identity with
// local sweeps depends on the round trip being lossless.
func TestSchemaStampKeepsSweepBytes(t *testing.T) {
	e := New()
	e.Workers = 1
	specs := testGrid()
	var plain bytes.Buffer
	if err := e.Stream(&plain, specs); err != nil {
		t.Fatal(err)
	}

	// Stamp every record (the worker's wire encoding)...
	e2 := New()
	e2.Workers = 1
	var wire bytes.Buffer
	if _, err := e2.StreamWith(&wire, specs, func(rec *Record) {
		rec.SchemaVersion = SchemaVersion
	}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain.Bytes(), wire.Bytes()) {
		t.Fatal("stamped stream should differ from the plain stream")
	}

	// ...then decode, strip, re-encode (the coordinator's merge).
	var merged bytes.Buffer
	enc := json.NewEncoder(&merged)
	for _, line := range bytes.Split(bytes.TrimSpace(wire.Bytes()), []byte("\n")) {
		rec, err := ValidateLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if rec.SchemaVersion != SchemaVersion {
			t.Fatalf("wire record not stamped: %s", line)
		}
		rec.SchemaVersion = 0
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(plain.Bytes(), merged.Bytes()) {
		t.Errorf("strip round trip not lossless:\nplain:\n%s\nmerged:\n%s", plain.String(), merged.String())
	}
}

// TestStreamWithStats checks the shared failure accounting dsmrun and
// the fabric both surface: records and failures are counted, failures
// join into the returned error, and the decorate hook sees every
// record before it is encoded.
func TestStreamWithStats(t *testing.T) {
	e := New()
	e.Workers = 1
	specs := []Spec{
		{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale},
		{App: "Jacobi", Version: "bogus", Procs: 2, Scale: core.SmallScale},
		{App: "MGS", Version: core.Tmk, Procs: 2, Scale: core.SmallScale},
	}
	var decorated int
	var buf bytes.Buffer
	stats, err := e.StreamWith(&buf, specs, func(*Record) { decorated++ })
	if stats.Records != 3 || stats.Failed != 1 {
		t.Errorf("stats = %+v, want 3 records / 1 failed", stats)
	}
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("err = %v, want joined run failure", err)
	}
	if decorated != 3 {
		t.Errorf("decorate saw %d records, want 3", decorated)
	}
	if got := len(bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))); got != 3 {
		t.Errorf("stream has %d lines, want 3", got)
	}
}
