package exp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/stats"
)

// testGrid is the small cross-product the determinism and round-trip
// tests sweep: two apps × DSM and MP versions × 1-2 procs × both
// protocols, small scale.
func testGrid() []Spec {
	axes := Axes{
		Apps:      []string{"Jacobi", "RB-SOR"},
		Versions:  []core.Version{core.Tmk, core.XHPF},
		Procs:     []int{1, 2},
		Protocols: proto.Names(),
	}
	return axes.Specs(Spec{Scale: core.SmallScale})
}

func TestSpecKeyRoundTrip(t *testing.T) {
	specs := append(testGrid(),
		Spec{App: "3-D FFT", Version: core.SPFOpt, Procs: 8, Scale: core.PaperScale, Protocol: proto.HomeLRC, Contention: -1},
		Spec{App: "NBF", Version: core.Seq, Procs: 1, Scale: core.MidScale, Contention: 4},
	)
	seen := map[string]bool{}
	for _, s := range specs {
		key := s.Key()
		if seen[key] {
			t.Errorf("duplicate key %q for distinct grid point", key)
		}
		seen[key] = true
		back, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if back != s {
			t.Errorf("key round-trip: %+v -> %q -> %+v", s, key, back)
		}
	}
	if _, err := ParseKey("app=Jacobi|bogus"); err == nil {
		t.Error("ParseKey accepted a malformed field")
	}
	if _, err := ParseKey("app=Jacobi|procs=x"); err == nil {
		t.Error("ParseKey accepted a non-numeric procs")
	}
}

func TestAxesCrossProductOrder(t *testing.T) {
	axes := Axes{
		Versions: []core.Version{core.Tmk, core.XHPF},
		Procs:    []int{1, 2},
	}
	got := axes.Specs(Spec{App: "Jacobi", Scale: core.SmallScale, Protocol: proto.HomelessLRC})
	want := []Spec{
		{App: "Jacobi", Version: core.Tmk, Procs: 1, Scale: core.SmallScale, Protocol: proto.HomelessLRC},
		{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC},
		{App: "Jacobi", Version: core.XHPF, Procs: 1, Scale: core.SmallScale, Protocol: proto.HomelessLRC},
		{App: "Jacobi", Version: core.XHPF, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cross-product order:\n got %v\nwant %v", got, want)
	}
}

func TestParseAxes(t *testing.T) {
	a, err := ParseAxes([]string{"procs=1,2,4,8", "protocol=lrc,hlrc"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Procs, []int{1, 2, 4, 8}) {
		t.Errorf("procs = %v", a.Procs)
	}
	if !reflect.DeepEqual(a.Protocols, []proto.Name{proto.HomelessLRC, proto.HomeLRC}) {
		t.Errorf("protocols = %v", a.Protocols)
	}
	for _, bad := range []string{"procs", "procs=0", "scale=huge", "protocol=zzz", "contention=-2", "nope=1", "fifo=true", "fifo=0", "procs="} {
		if _, err := ParseAxes([]string{bad}); err == nil {
			t.Errorf("ParseAxes accepted %q", bad)
		}
	}
}

// TestParseAxesSpacedAppNames: shells split "app=Jacobi,3-D FFT" into
// two tokens; a token without '=' rejoins the previous one so every
// registered application is reachable from the sweep syntax.
func TestParseAxesSpacedAppNames(t *testing.T) {
	a, err := ParseAxes([]string{"app=Jacobi,3-D", "FFT", "procs=2"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Apps, []string{"Jacobi", "3-D FFT"}) {
		t.Errorf("apps = %q, want [Jacobi, 3-D FFT]", a.Apps)
	}
	if !reflect.DeepEqual(a.Procs, []int{2}) {
		t.Errorf("procs = %v", a.Procs)
	}
	a, err = ParseAxes([]string{"app=3-D", "FFT", "version=tmk,pvme"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Apps, []string{"3-D FFT"}) {
		t.Errorf("apps = %q, want [3-D FFT]", a.Apps)
	}
	// Every registered app name must survive a shell-style round trip.
	for _, name := range AppNames() {
		toks := strings.Fields("app=" + name)
		a, err := ParseAxes(toks)
		if err != nil {
			t.Errorf("app %q: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(a.Apps, []string{name}) {
			t.Errorf("app %q parsed as %q", name, a.Apps)
		}
	}
	// A leading continuation token still errors.
	if _, err := ParseAxes([]string{"FFT", "procs=2"}); err == nil {
		t.Error("leading continuation token accepted")
	}
}

func TestEngineCachesAndDeduplicates(t *testing.T) {
	e := New()
	var executions int
	e.Lookup = func(name string) (core.App, error) {
		executions++ // called once per execute, under singleflight
		return AppByName(name)
	}
	s := Spec{App: "Jacobi", Version: core.Seq, Procs: 1, Scale: core.SmallScale}
	r1, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Checksum != r2.Checksum || r1.Time != r2.Time {
		t.Error("cached result differs from first run")
	}
	if executions != 1 {
		t.Errorf("app resolved %d times, want 1 (cache miss only)", executions)
	}
	if keys := cachedKeys(e); len(keys) != 1 || keys[0] != s.Key() {
		t.Errorf("cached keys = %v, want [%s]", keys, s.Key())
	}

	// A sweep with duplicate specs executes each unique key once.
	executions = 0
	var recs []Record
	if _, err := e.StreamWith(io.Discard, []Spec{s, s, s}, func(r *Record) { recs = append(recs, *r) }); err != nil {
		t.Fatal(err)
	}
	if executions != 0 {
		t.Errorf("sweep re-executed a cached spec %d times", executions)
	}
	for _, r := range recs {
		if r.Checksum != r1.Checksum {
			t.Error("sweep record differs from cached run")
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := New()
	if _, err := e.Run(Spec{App: "NoSuchApp", Version: core.Seq, Procs: 1, Scale: core.SmallScale}); err == nil {
		t.Error("unknown app did not error")
	}
	if _, err := e.Run(Spec{App: "IGrid", Version: core.Version("tmk-push"), Procs: 2, Scale: core.SmallScale}); err == nil {
		t.Error("unsupported version did not error")
	}
	if _, err := e.Run(Spec{App: "Jacobi", Version: core.Tmk, Procs: 0, Scale: core.SmallScale}); err == nil {
		t.Error("invalid procs did not error")
	}
	// A stream surfaces run failures as a joined error and error records.
	specs := []Spec{
		{App: "Jacobi", Version: core.Seq, Procs: 1, Scale: core.SmallScale},
		{App: "NoSuchApp", Version: core.Seq, Procs: 1, Scale: core.SmallScale},
	}
	var sb strings.Builder
	if _, err := e.StreamWith(&sb, specs, nil); err == nil || !strings.Contains(err.Error(), "NoSuchApp") {
		t.Errorf("stream error = %v, want mention of NoSuchApp", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream emitted %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[1], `"error"`) {
		t.Errorf("failed spec's record carries no error field: %s", lines[1])
	}
}

// TestEngineMatchesDirectRun pins the engine's Config plumbing: running
// a spec through the engine must reproduce a direct app.Run with the
// historical configuration exactly.
func TestEngineMatchesDirectRun(t *testing.T) {
	e := New()
	s := Spec{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomeLRC}
	got, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AppByName("Jacobi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.Config(core.SmallScale, 2)
	cfg.Costs = model.SP2()
	cfg.App = model.DefaultAppCosts()
	cfg.Protocol = proto.HomeLRC
	want, err := a.Run(core.Tmk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Checksum != want.Checksum ||
		got.Stats.TotalMsgs() != want.Stats.TotalMsgs() ||
		got.Stats.TotalBytes() != want.Stats.TotalBytes() {
		t.Errorf("engine run diverged from direct run:\n got %v\nwant %v", got, want)
	}
}

// failAfterWriter fails every write after the first n.
type failAfterWriter struct {
	n      int
	writes int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errShortPipe
	}
	return len(p), nil
}

var errShortPipe = fmt.Errorf("short pipe")

// TestStreamWriteErrorCancels: a failing writer aborts the stream with
// the write error and stops the prefetch pool from starting the
// remaining runs (the engine's cache holds fewer keys than the grid).
func TestStreamWriteErrorCancels(t *testing.T) {
	e := New()
	e.Workers = 1 // serial pool: cancellation is deterministic
	specs := testGrid()
	_, err := e.StreamWith(&failAfterWriter{n: 1}, specs, nil)
	if err != errShortPipe {
		t.Fatalf("stream error = %v, want the write error", err)
	}
	if got := e.HostStats().RunsStarted; got >= int64(len(specs)) {
		t.Errorf("prefetch ran all %d specs despite the aborted stream", got)
	}
}

// cachedKeys lists e's run cache keys — canonical, one per execution —
// in sorted order.
func cachedKeys(e *Engine) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.cache))
	for k := range e.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestNormalize(t *testing.T) {
	s := Spec{App: "Jacobi", Version: core.Seq, Procs: 8, Scale: core.SmallScale}
	if n := s.Normalize(); n.Procs != 1 {
		t.Errorf("seq normalized to %d procs, want 1", n.Procs)
	}
	s.Version = core.Tmk
	if n := s.Normalize(); n.Procs != 8 {
		t.Errorf("non-seq normalize changed procs to %d", n.Procs)
	}
}

// TestRecordOfDiffBytes: a record's diff_bytes is its run's diff
// traffic, Stats.BytesOf(KindDiff) — nonzero for a DSM version under
// either protocol — and a message-passing run, which sends no diffs,
// leaves the field out of its line.
func TestRecordOfDiffBytes(t *testing.T) {
	e := New()
	for _, s := range []Spec{
		{App: "MGS", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomelessLRC},
		{App: "MGS", Version: core.Tmk, Procs: 2, Scale: core.SmallScale, Protocol: proto.HomeLRC},
		{App: "MGS", Version: core.PVMe, Procs: 2, Scale: core.SmallScale},
	} {
		s = s.Normalize()
		res, err := e.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		rec := RecordOf(s, res, nil)
		want := res.Stats.BytesOf(stats.KindDiff)
		if rec.DiffBytes != want {
			t.Errorf("%s: diff_bytes %d, want BytesOf(KindDiff) %d", s.Key(), rec.DiffBytes, want)
		}
		line, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if dsm := s.Version == core.Tmk; (want != 0) != dsm || bytes.Contains(line, []byte(`"diff_bytes"`)) != dsm {
			t.Errorf("%s: diff_bytes %d in %s", s.Key(), want, line)
		}
	}
}

// TestStreamLooksAppsUpOnce: a stream resolves each application name
// once and shares the core.App among its runs — a gen-<seed> program is
// generated and compiled once a sweep, not once a run. Its workers run
// the one App at once; every record must equal a fresh engine's, whose
// stream looked the program up for itself. Run it under -race.
func TestStreamLooksAppsUpOnce(t *testing.T) {
	var specs []Spec
	for _, v := range []core.Version{core.Seq, core.SPFGen, core.XHPFGen} {
		for _, procs := range []int{1, 2, 3} {
			specs = append(specs, Spec{App: "gen-7", Version: v, Procs: procs, Scale: core.SmallScale}.Normalize())
		}
	}
	lookups := map[string]int{}
	var mu sync.Mutex
	e := New()
	e.Workers, e.JoinSpeedup = 2, true
	e.Lookup = func(name string) (core.App, error) {
		mu.Lock()
		lookups[name]++
		mu.Unlock()
		return AppByName(name)
	}
	var recs []Record
	if _, err := e.StreamWith(io.Discard, specs, func(r *Record) { recs = append(recs, *r) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lookups, map[string]int{"gen-7": 1}) {
		t.Errorf("lookups = %v, want gen-7 once", lookups)
	}
	for i, s := range specs {
		fresh := New()
		fresh.JoinSpeedup = true
		if want := recordT(t, fresh, s); !reflect.DeepEqual(recs[i], want) {
			t.Errorf("%s: record %+v, a fresh engine's %+v", s.Key(), recs[i], want)
		}
	}

	// The same App run from two goroutines at once, directly.
	a, err := AppByName("gen-7")
	if err != nil {
		t.Fatal(err)
	}
	s := specs[len(specs)-1]
	var wg sync.WaitGroup
	got, errs := make([]core.Result, 2), make([]error, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = a.Run(s.Version, New().Config(a, s))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	want, err := New().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for g, res := range got {
		if !reflect.DeepEqual(RecordOf(s, res, nil), RecordOf(s, want, nil)) {
			t.Errorf("goroutine %d: %+v, a fresh engine's %+v", g, RecordOf(s, res, nil), RecordOf(s, want, nil))
		}
	}
}
