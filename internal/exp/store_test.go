package exp

import (
	"bytes"
	"expvar"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/store"
)

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, StoreOptions(0))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storeKeysT lists st's live keys in sorted order, through Verify's
// callback.
func storeKeysT(t *testing.T, st *store.Store) []string {
	t.Helper()
	var keys []string
	if _, err := st.Verify(func(key string, _ []byte) error {
		keys = append(keys, key)
		return nil
	}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return keys
}

// streamT runs one engine over specs and returns the stream bytes.
func streamT(t *testing.T, e *Engine, specs []Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.StreamWith(&buf, specs, nil); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return buf.Bytes()
}

// recordT streams one spec through e and returns its record; a failed
// run is an error record.
func recordT(tb testing.TB, e *Engine, s Spec) Record {
	tb.Helper()
	var rec Record
	e.StreamWith(io.Discard, []Spec{s}, func(r *Record) { rec = *r }) //nolint:errcheck // the error is rec.Error
	return rec
}

// TestStoreKeepsSweepBytes is the tentpole invariant: sweep output is
// byte-identical with the store disabled, cold, and warm — at 1, 2 and
// 8 workers, with speedup joins on, and with observation on — and a
// warm run executes zero simulations: every run, however many labels
// name it, is one store hit.
func TestStoreKeepsSweepBytes(t *testing.T) {
	for _, mode := range []struct {
		name          string
		join, observe bool
	}{
		{name: "plain"},
		{name: "speedup", join: true},
		{name: "observed", observe: true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			specs := testGrid()
			build := func(workers int, st *store.Store) *Engine {
				e := New()
				e.Workers = workers
				e.JoinSpeedup = mode.join
				e.Observe = mode.observe
				e.Store = st
				return e
			}
			want := streamT(t, build(4, nil), specs) // store disabled

			dir := t.TempDir()
			cold := build(4, openStoreT(t, dir))
			if got := streamT(t, cold, specs); !bytes.Equal(got, want) {
				t.Fatalf("cold store changed the sweep bytes:\nwant:\n%s\ngot:\n%s", want, got)
			}
			if hs := cold.HostStats(); hs.StoreHits != 0 {
				t.Errorf("cold run reported %d store hits", hs.StoreHits)
			}

			for _, workers := range []int{1, 2, 8} {
				warm := build(workers, openStoreT(t, dir))
				if got := streamT(t, warm, specs); !bytes.Equal(got, want) {
					t.Errorf("workers=%d: warm store changed the sweep bytes:\nwant:\n%s\ngot:\n%s",
						workers, want, got)
				}
				hs := warm.HostStats()
				if hs.RunsStarted != 0 {
					t.Errorf("workers=%d: warm run executed %d simulations, want 0", workers, hs.RunsStarted)
				}
				// The grid's 16 specs are 12 runs: each xhpf cell is named
				// under both protocols.
				want := int64(12)
				if mode.join {
					want += 2 // one baseline per application
				}
				if hs.StoreHits != want || want != int64(PlanRuns(specs, mode.join).Len()) {
					t.Errorf("workers=%d: %d store hits, want %d", workers, hs.StoreHits, want)
				}
				if hs.RunsPlanned != want || hs.RunsResolved != want {
					t.Errorf("workers=%d: %d of %d planned runs resolved, want %d of %d", workers, hs.RunsResolved, hs.RunsPlanned, want, want)
				}
			}
		})
	}
}

// TestStoreObservedAndPlainRecordsAreDisjoint pins the key split: an
// observed sweep must never serve (or be served) a plain record, whose
// bytes lack the bd_* fields.
func TestStoreObservedAndPlainRecordsAreDisjoint(t *testing.T) {
	specs := testGrid()[:2]
	dir := t.TempDir()

	plain := New()
	plain.Store = openStoreT(t, dir)
	plainBytes := streamT(t, plain, specs)

	obs := New()
	obs.Observe = true
	obs.Store = openStoreT(t, dir)
	obsBytes := streamT(t, obs, specs)
	if hs := obs.HostStats(); hs.StoreHits != 0 {
		t.Errorf("observed sweep hit %d plain store entries", hs.StoreHits)
	}
	if !strings.Contains(string(obsBytes), `"bd_`) {
		t.Fatalf("observed sweep lost its breakdown fields:\n%s", obsBytes)
	}
	if strings.Contains(string(plainBytes), `"bd_`) {
		t.Fatalf("plain sweep gained breakdown fields:\n%s", plainBytes)
	}

	// Both populations stored: a warm engine of each flavor hits.
	plain2 := New()
	plain2.Store = openStoreT(t, dir)
	if got := streamT(t, plain2, specs); !bytes.Equal(got, plainBytes) {
		t.Error("warm plain sweep diverged")
	}
	if hs := plain2.HostStats(); hs.RunsStarted != 0 {
		t.Errorf("warm plain sweep executed %d runs", hs.RunsStarted)
	}
}

// TestStoreOfAnOldSchemaReadsEmpty: a store an older build wrote — its
// frames stamped schema 1, its records carrying the retired
// fault_ns/sync_ns/write_ns fields — serves nothing under this build's
// schema. The spec re-executes and streams in the current shape.
func TestStoreOfAnOldSchemaReadsEmpty(t *testing.T) {
	s := Spec{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC}.Normalize()
	want := streamT(t, New(), []Spec{s})
	old := bytes.Replace(bytes.TrimSpace(want), []byte("}"), []byte(`,"fault_ns":1,"sync_ns":2,"write_ns":3}`), 1)

	dir := t.TempDir()
	v1, err := store.Open(dir, store.Options{SchemaVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put(StoreKey(s, false), old); err != nil {
		t.Fatal(err)
	}
	v1.Close()

	e := New()
	e.Store = openStoreT(t, dir)
	if got := streamT(t, e, []Spec{s}); !bytes.Equal(got, want) {
		t.Fatalf("sweep over a schema-1 store:\n%s\nwant:\n%s", got, want)
	}
	if hs := e.HostStats(); hs.StoreHits != 0 || hs.RunsStarted != 1 {
		t.Errorf("schema-1 store: %d hits, %d runs; want 0 hits and a re-execution", hs.StoreHits, hs.RunsStarted)
	}
	if st := e.Store.Stats(); st.SchemaSkips == 0 {
		t.Errorf("stats = %+v, want the schema-1 frame skipped", st)
	}
}

// TestStoreCorruptEntryRecomputed corrupts one stored frame in place:
// the engine must detect it, re-execute that spec, emit identical
// bytes, and heal the store so the next run is all hits again.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	specs := testGrid()
	dir := t.TempDir()

	cold := New()
	cold.Store = openStoreT(t, dir)
	want := streamT(t, cold, specs)

	// Flip a byte in the middle of the segment (inside some frame's
	// payload — the store's CRC must catch it).
	seg := filepath.Join(dir, "records.log")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := New()
	warm.Store = openStoreT(t, dir)
	if got := streamT(t, warm, specs); !bytes.Equal(got, want) {
		t.Fatalf("sweep over corrupted store diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
	hs := warm.HostStats()
	if hs.RunsStarted == 0 {
		t.Error("corrupted entry was served instead of recomputed")
	}
	if hs.RunsStarted >= int64(PlanRuns(specs, false).Len()) {
		t.Errorf("corruption of one frame re-executed %d runs", hs.RunsStarted)
	}

	healed := New()
	healed.Store = openStoreT(t, dir)
	if got := streamT(t, healed, specs); !bytes.Equal(got, want) {
		t.Fatal("sweep over healed store diverged")
	}
	if hs := healed.HostStats(); hs.RunsStarted != 0 {
		t.Errorf("healed store still forced %d executions", hs.RunsStarted)
	}
}

// TestStoreFrameCorruptedAfterOpen corrupts one frame's payload on
// disk after the store has indexed it: the prefetch finds the key
// indexed and leaves the run to the emitter, whose read fails its CRC.
// The emitter must execute that run — once, though several specs need
// it — emit the cold stream's bytes and heal the store, so the next
// pass starts no run. The corrupted run is an application's baseline,
// joined into eight records, or a run two protocol labels share.
func TestStoreFrameCorruptedAfterOpen(t *testing.T) {
	specs := testGrid()
	jacobi := specs[0] // Jacobi tmk, 1 proc
	for _, c := range []struct {
		name string
		run  Spec
	}{
		{"baseline", SeqSpecOf(jacobi)},
		{"labelled", Spec{App: "Jacobi", Version: core.XHPF, Procs: 1, Scale: core.SmallScale}.Canonical()},
	} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				build := func(st *store.Store) *Engine {
					e := New()
					e.Workers, e.JoinSpeedup, e.Store = workers, true, st
					return e
				}
				dir := t.TempDir()
				want := streamT(t, build(openStoreT(t, dir)), specs)

				warm := build(openStoreT(t, dir)) // indexes every frame
				corruptValueOf(t, dir, StoreKey(c.run, false))
				if got := streamT(t, warm, specs); !bytes.Equal(got, want) {
					t.Fatalf("stream over a frame corrupted after Open:\n%s\nwant:\n%s", got, want)
				}
				runs := int64(PlanRuns(specs, true).Len())
				hs := warm.HostStats()
				if hs.RunsStarted != 1 || hs.StoreHits != runs-1 || hs.RunsResolved != runs {
					t.Errorf("%d runs started, %d store hits, %d of %d runs resolved; want 1, %d, %d of %d",
						hs.RunsStarted, hs.StoreHits, hs.RunsResolved, hs.RunsPlanned, runs-1, runs, runs)
				}
				if keys := cachedKeys(warm); len(keys) != 1 || keys[0] != c.run.Key() {
					t.Errorf("executed %v, want the corrupted run %s alone", keys, c.run.Key())
				}
				if st := warm.Store.Stats(); st.CorruptFrames != 1 || st.Puts != 1 {
					t.Errorf("store stats %+v, want one corrupt frame and its healing put", st)
				}

				healed := build(openStoreT(t, dir))
				if got := streamT(t, healed, specs); !bytes.Equal(got, want) {
					t.Fatal("stream over the healed store diverged")
				}
				if hs := healed.HostStats(); hs.RunsStarted != 0 || hs.StoreHits != runs {
					t.Errorf("healed store: %d runs started, %d store hits; want 0 and %d", hs.RunsStarted, hs.StoreHits, runs)
				}
			})
		}
	}
}

// corruptValueOf flips one byte inside the value of key's frame in the
// live segment, where the frame's CRC covers it.
func corruptValueOf(t *testing.T, dir, key string) {
	t.Helper()
	seg := filepath.Join(dir, "records.log")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte(key)); n != 1 {
		t.Fatalf("segment holds %d frames of %s, want 1", n, key)
	}
	// The key, the value's 4-byte length, then the value.
	b[bytes.Index(b, []byte(key))+len(key)+4+8] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreNeverStoresErrors: failed runs re-execute every time and
// never land in the store.
func TestStoreNeverStoresErrors(t *testing.T) {
	dir := t.TempDir()
	bad := Spec{App: "NoSuchApp", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC}.Normalize()
	failStream := func(e *Engine) []byte {
		var buf bytes.Buffer
		stats, err := e.StreamWith(&buf, []Spec{bad}, nil)
		if err == nil || stats.Failed != 1 {
			t.Fatalf("expected one failed record, got stats %+v err %v", stats, err)
		}
		return buf.Bytes()
	}
	e1 := New()
	e1.Store = openStoreT(t, dir)
	want := failStream(e1)
	if !strings.Contains(string(want), `"error"`) {
		t.Fatalf("expected an error record, got:\n%s", want)
	}
	e2 := New()
	e2.Store = openStoreT(t, dir)
	if got := failStream(e2); !bytes.Equal(got, want) {
		t.Fatal("error record bytes diverged")
	}
	if hs := e2.HostStats(); hs.StoreHits != 0 || hs.RunsStarted != 1 {
		t.Errorf("error spec: hits=%d runs=%d, want 0 hits and a re-execution", hs.StoreHits, hs.RunsStarted)
	}
}

// TestProgressStoreHits: a half-warm sweep resolves every planned run,
// the stored ones from disk and the others by running them.
func TestProgressStoreHits(t *testing.T) {
	specs := testGrid()[:4]
	dir := t.TempDir()
	cold := New()
	cold.Store = openStoreT(t, dir)
	streamT(t, cold, specs[:2])

	warm := New()
	warm.Store = openStoreT(t, dir)
	streamT(t, warm, specs)
	hs := warm.HostStats()
	if hs.RunsPlanned != int64(len(specs)) || hs.RunsResolved != hs.RunsPlanned {
		t.Fatalf("%d of %d planned runs resolved after a sweep of %d specs", hs.RunsResolved, hs.RunsPlanned, len(specs))
	}
	if hs.StoreHits != 2 || hs.RunsStarted != 2 {
		t.Errorf("store hits/runs started = %d/%d, want 2/2", hs.StoreHits, hs.RunsStarted)
	}
}

// TestSweepCommitsItsWriteBacks: a sweep writes back each run once and
// ends with every record it wrote back fsynced (nothing left for a later
// Sync or Close to do), a warm sweep issues no fsync at all, and the
// telemetry map's store section reports the fsyncs and their time.
func TestSweepCommitsItsWriteBacks(t *testing.T) {
	specs := testGrid()
	dir := t.TempDir()
	st := openStoreT(t, dir)
	cold := New()
	cold.Workers = 2
	cold.Store = st
	cold.Metrics = new(expvar.Map)
	streamT(t, cold, specs)
	after := st.Stats()
	// 16 specs, 12 runs: the xhpf cells run once for both protocol labels.
	if runs := cold.HostStats().RunsStarted; runs != 12 || after.Puts != runs || after.Syncs == 0 {
		t.Fatalf("cold sweep: %d runs, stats = %+v, want 12 runs, a put each and at least one fsync", runs, after)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Syncs; got != after.Syncs {
		t.Fatalf("Sync after the sweep issued an fsync: the sweep left frames pending")
	}
	doc := readTelemetry(t, cold.Metrics)
	if doc.Store.Syncs != after.Syncs || doc.Store.SyncNanos != after.SyncNanos || doc.Store.SyncNanos <= 0 {
		t.Errorf("map reports %d fsyncs in %d ns, store counted %d in %d ns", doc.Store.Syncs, doc.Store.SyncNanos, after.Syncs, after.SyncNanos)
	}

	warm := New()
	warm.Store = st
	streamT(t, warm, specs)
	if hs := warm.HostStats(); hs.RunsStarted != 0 || hs.StoreHits != 12 {
		t.Fatalf("warm sweep executed %d runs with %d store hits, want 0 and 12", hs.RunsStarted, hs.StoreHits)
	}
	if got := st.Stats().Syncs; got != after.Syncs {
		t.Errorf("warm sweep issued %d fsyncs, want none", got-after.Syncs)
	}
}

// badSumApp is an application with every run's checksum replaced.
type badSumApp struct {
	core.App
	sum float64
}

func (a badSumApp) Run(v core.Version, cfg core.Config) (core.Result, error) {
	res, err := a.App.Run(v, cfg)
	res.Checksum = a.sum
	return res, err
}

// TestNonFiniteChecksumIsARunError: a run that returns NaN (or ±Inf) for
// its checksum has failed, and fails in execute, so everywhere alike:
// Run, a stream and the record report one error. JSON could not carry the
// value, and no speedup may be computed from it.
func TestNonFiniteChecksumIsARunError(t *testing.T) {
	s := Spec{App: "Jacobi", Version: core.XHPF, Procs: 2, Scale: core.SmallScale}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := New()
		e.Lookup = func(name string) (core.App, error) {
			a, err := AppByName(name)
			return badSumApp{a, bad}, err
		}
		const want = "Jacobi/xhpf: non-finite checksum"
		if _, err := e.Run(s); err == nil || err.Error() != want {
			t.Errorf("checksum %v: Run error = %v, want %q", bad, err, want)
		}
		if _, err := e.StreamWith(io.Discard, []Spec{s}, nil); err == nil || err.Error() != want {
			t.Errorf("checksum %v: stream error = %v, want %q", bad, err, want)
		}
		if rec := recordT(t, e, s); rec.Error != want || rec.Checksum != 0 || rec.TimeNanos != 0 {
			t.Errorf("checksum %v: record = %+v, want the error record %q", bad, rec, want)
		}
	}
}

// TestNonFiniteChecksumIsAnErrorRecord: in a stream the failed run is an
// error record in its place, counted in Failed, never written back —
// and the specs around it still stream.
func TestNonFiniteChecksumIsAnErrorRecord(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	e := New()
	e.Store = st
	e.Lookup = func(name string) (core.App, error) {
		a, err := AppByName(name)
		if name == "Jacobi" {
			a = badSumApp{a, math.NaN()}
		}
		return a, err
	}
	specs := []Spec{
		{App: "RB-SOR", Version: core.Seq, Procs: 1, Scale: core.SmallScale},
		{App: "Jacobi", Version: core.XHPF, Procs: 2, Scale: core.SmallScale},
		{App: "RB-SOR", Version: core.PVMe, Procs: 2, Scale: core.SmallScale},
	}
	var buf bytes.Buffer
	stats, err := e.StreamWith(&buf, specs, nil)
	if err == nil || !strings.Contains(err.Error(), "non-finite checksum") {
		t.Errorf("StreamWith error = %v, want the non-finite checksum", err)
	}
	if stats != (StreamStats{Records: 3, Failed: 1}) {
		t.Errorf("stats = %+v, want 3 records, 1 failed", stats)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		rec, err := ValidateLine(line)
		if err != nil {
			t.Errorf("line %d: %v", i, err)
		}
		if (rec.Error != "") != (i == 1) || rec.Spec != specs[i] {
			t.Errorf("line %d: spec %+v error %q", i, rec.Spec, rec.Error)
		}
	}
	if st.Len() != 2 {
		t.Errorf("store holds %d records, want the 2 good ones", st.Len())
	}
}
