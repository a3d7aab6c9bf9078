package exp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

var updateVersionsGolden = flag.Bool("update-versions-golden", false,
	"regenerate internal/exp/testdata/versions-small.jsonl and versions-small-traces.sha256")

var (
	versionsGolden = filepath.Join("testdata", "versions-small.jsonl")
	tracesGolden   = filepath.Join("testdata", "versions-small-traces.sha256")
)

// versionSpecs is every registered application × every version it
// lists at small scale and 3 processors (a ragged count), under both
// coherence protocols for the versions that run on the DSM and once for
// the rest.
func versionSpecs() []Spec {
	var specs []Spec
	for _, a := range Apps() {
		for _, v := range a.Versions() {
			s := Spec{App: a.Name(), Version: v, Procs: 3, Scale: core.SmallScale}
			if !core.Describe(v).Runtime.OnDSM() {
				specs = append(specs, s.Normalize())
				continue
			}
			for _, p := range proto.Names() {
				s.Protocol = p
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// traceDigests renders the Chrome trace of one run per runtime —
// Jacobi's base versions at 3 processors — and returns one
// "sha256  App/version" line per run.
func traceDigests(t *testing.T) []byte {
	t.Helper()
	e := New()
	e.Observe = true
	var out bytes.Buffer
	for _, row := range core.VersionTable() {
		if row.Varies != "" {
			continue
		}
		s := Spec{App: "Jacobi", Version: row.Version, Procs: 3, Scale: core.SmallScale}.Normalize()
		res, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		h := sha256.New()
		if err := res.Trace.WriteChrome(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%x  %s/%s\n", h.Sum(nil), s.App, s.Version)
	}
	return out.Bytes()
}

// TestEveryVersionsRecordIsPinned pins the whole observed, speedup-joined
// record of every version of every application — time, traffic by kind,
// checksum, the fault/sync/write attribution and every per-node breakdown
// field — and the Chrome trace of one run per runtime. The measurement
// protocol, the runtimes and the protocols all show here; a deliberate
// change regenerates with
//
//	go test ./internal/exp -run TestEveryVersionsRecordIsPinned -update-versions-golden
func TestEveryVersionsRecordIsPinned(t *testing.T) {
	e := New()
	e.Observe = true
	e.JoinSpeedup = true
	records := streamT(t, e, versionSpecs())
	traces := traceDigests(t)
	if *updateVersionsGolden {
		for path, data := range map[string][]byte{versionsGolden: records, tracesGolden: traces} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for path, got := range map[string][]byte{versionsGolden: records, tracesGolden: traces} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (rerun with -update-versions-golden)", err)
		}
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s: line %d drifted:\n got %s\nwant %s\n(if deliberate, rerun with -update-versions-golden)", path, i+1, g, w)
			}
		}
	}
}
