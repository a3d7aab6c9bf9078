package exp

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loopc/gen"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// TestEveryVersionHasAClass: core's version table has a row for every
// version any registered application or generated program lists, so no
// version is left to the safe default by oversight; a version it does
// not name reads every axis.
func TestEveryVersionHasAClass(t *testing.T) {
	apps := append(Apps(), gen.AppForSeed(1))
	for _, a := range apps {
		for _, v := range a.Versions() {
			if core.Describe(v).Version == "" {
				t.Errorf("%s lists version %q, which the version table does not name", a.Name(), v)
			}
		}
	}
	odd := Spec{App: "Jacobi", Version: "tmk-next", Procs: 4, Scale: core.SmallScale,
		Protocol: proto.HomelessLRC, HomePolicy: proto.AdaptivePolicy, Contention: 2}
	if got := odd.Canonical(); got != odd {
		t.Errorf("unnamed version canonicalizes to %+v, want itself", got)
	}
}

// everyLabel sets each axis the runtime of s's version does not read to
// a value a default spec does not have.
func everyLabel(s Spec) []Spec {
	switch rt := core.Describe(s.Version).Runtime; {
	case rt == core.SeqRuntime:
		s.Procs, s.Contention = 4, 2
		s.Protocol, s.HomePolicy = proto.HomeLRC, proto.AdaptivePolicy
		return []Spec{s}
	case !rt.OnDSM():
		s.Protocol, s.HomePolicy = proto.HomeLRC, proto.FirstTouchPolicy
		return []Spec{s}
	}
	var out []Spec
	for _, p := range []proto.Name{"", proto.HomelessLRC} {
		for _, hp := range proto.PolicyNames() {
			s.Protocol, s.HomePolicy = p, hp
			out = append(out, s)
		}
	}
	return out
}

// TestCanonicalRunIsTheLabelledRun is the oracle behind the run
// identity: the labelled spec executed directly, no cache and no rule in
// the way, gives the result of its canonical form — the whole
// core.Result, so time, traffic by kind, queue counters, checksum,
// attribution and breakdown — and so the same record bytes under one
// label. Every application, every version whose class has labels: seq
// and the message-passing versions, and the DSM front ends under the
// homeless protocol with every home policy.
func TestCanonicalRunIsTheLabelledRun(t *testing.T) {
	e := New()
	e.Observe = true
	direct := func(s Spec) core.Result {
		t.Helper()
		res, err := e.execute(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		res.Trace = nil // per-run state; the breakdown is what it attributes
		return res
	}
	apps := append(Apps(), gen.AppForSeed(3))
	for _, a := range apps {
		for _, v := range a.Versions() {
			if info := core.Describe(v); info.Runtime.OnDSM() && info.Varies != "" {
				continue
			}
			for _, contention := range []int{0, 2} {
				base := Spec{App: a.Name(), Version: v, Procs: 4, Scale: core.SmallScale, Contention: contention}
				for _, labelled := range everyLabel(base) {
					canon := labelled.Canonical()
					if canon == labelled {
						t.Fatalf("%s carries no label", labelled.Key())
					}
					got, want := direct(canon), direct(labelled)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s\n ran as %s and differs:\n got %+v\nwant %+v", labelled.Key(), canon.Key(), got, want)
					}
					gotRec, wantRec := RecordOf(labelled, got, nil), RecordOf(labelled, want, nil)
					gotLine, _ := AppendRecord(nil, &gotRec)
					wantLine, _ := AppendRecord(nil, &wantRec)
					if !bytes.Equal(gotLine, wantLine) || len(gotLine) == 0 {
						t.Errorf("%s: record bytes differ:\n%s\n%s", labelled.Key(), gotLine, wantLine)
					}
				}
			}
		}
	}
}

// FuzzCanonical: the canonical form of any spec is a fixed point, is a
// valid spec whenever the spec is, keeps what Normalize does, and
// round-trips through Key and ParseKey like any spec.
func FuzzCanonical(f *testing.F) {
	for _, s := range append(labelHeavySpecs(),
		Spec{App: "gen-7", Version: core.XHPFGen, Procs: 3, Scale: core.MidScale, Protocol: "hlrc", HomePolicy: "static", Contention: -1},
		Spec{App: "NBF", Version: "tmk-next", Procs: 8, Protocol: "lrc", HomePolicy: "adaptive"},
		Spec{App: "Jacobi", Version: core.Seq, Procs: 0, Scale: "huge", Protocol: "zzz", Contention: -7},
	) {
		f.Add(s.App, string(s.Version), s.Procs, string(s.Scale), string(s.Protocol), s.Contention, string(s.HomePolicy))
	}
	f.Fuzz(func(t *testing.T, app, version string, procs int, scale, protocol string, contention int, policy string) {
		s := Spec{App: app, Version: core.Version(version), Procs: procs, Scale: core.Scale(scale),
			Protocol: proto.Name(protocol), Contention: contention, HomePolicy: proto.PolicyName(policy)}
		c := s.Canonical()
		if again := c.Canonical(); again != c {
			t.Fatalf("not idempotent: %+v -> %+v -> %+v", s, c, again)
		}
		if c.Normalize() != c || s.Normalize().Canonical() != c {
			t.Fatalf("canonical form %+v of %+v disagrees with Normalize", c, s)
		}
		if c.App != s.App || c.Version != s.Version || c.Scale != s.Scale {
			t.Fatalf("canonical form %+v changed what every run reads of %+v", c, s)
		}
		if s.Validate() == nil {
			if err := c.Validate(); err != nil {
				t.Fatalf("valid %+v has invalid canonical form %+v: %v", s, c, err)
			}
		}
		if !strings.ContainsAny(app+version+scale+protocol+policy, "|=") {
			if back, err := ParseKey(c.Key()); err != nil || back != c {
				t.Fatalf("ParseKey(%q) = %+v, %v; want %+v", c.Key(), back, err, c)
			}
		}
	})
}

// labelHeavySpecs is a sweep most of whose specs are labels of a run
// another spec already names: 32 specs, 11 executions.
func labelHeavySpecs() []Spec {
	axes := Axes{
		Versions:     []core.Version{core.Seq, core.XHPF, core.PVMe, core.Tmk},
		Protocols:    proto.Names(),
		HomePolicies: []proto.PolicyName{proto.StaticPolicy, proto.FirstTouchPolicy},
		Contentions:  []int{0, 2},
	}
	specs := axes.Specs(Spec{App: "Jacobi", Procs: 2, Scale: core.SmallScale})
	for i := range specs {
		specs[i] = specs[i].Normalize()
	}
	return specs
}

// TestLabelOnlyRepeatsShareARun: over a label-heavy list every count of
// runs — UniqueRuns, RunsStarted, the cached keys, the per-version
// histograms, OnRunDone, a Progress that ends N/N — is the number of
// executions; the labels never reach the run cache, since the stream
// resolves each run once and relabels its record; and the stream is the
// one an engine gives that is asked for one spec at a time.
func TestLabelOnlyRepeatsShareARun(t *testing.T) {
	specs := labelHeavySpecs()
	const runs = 11 // seq 1; xhpf, pvme one per contention; tmk lrc 2, hlrc 4
	if got := UniqueRuns(specs, false); got != runs || UniqueRuns(specs, true) != runs {
		t.Fatalf("UniqueRuns = %d (joined %d), want %d", got, UniqueRuns(specs, true), runs)
	}
	var want bytes.Buffer
	for _, s := range specs {
		one := New()
		one.JoinSpeedup = true
		if err := one.Stream(&want, []Spec{s}); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		e := New()
		e.Workers = workers
		e.JoinSpeedup = true
		e.Metrics = metrics.NewRegistry()
		p := NewProgress(UniqueRuns(specs, true), nil, e)
		e.OnRunDone = p.RunDone
		if got := streamT(t, e, specs); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("workers=%d: the sweep's stream differs from its specs' own:\n%s\nwant\n%s", workers, got, want.Bytes())
		}
		hs := e.HostStats()
		if hs.RunsStarted != runs || len(e.CachedKeys()) != runs {
			t.Errorf("workers=%d: %d runs started, %d keys cached, want %d", workers, hs.RunsStarted, len(e.CachedKeys()), runs)
		}
		for _, key := range e.CachedKeys() {
			if s, err := ParseKey(key); err != nil || s.Canonical() != s {
				t.Errorf("workers=%d: cached key %q is not a canonical spec's", workers, key)
			}
		}
		if hs.CacheHits+hs.CacheWaits != 0 {
			t.Errorf("workers=%d: %d cache hits and %d waits, want none: a label asked the run cache again",
				workers, hs.CacheHits, hs.CacheWaits)
		}
		if snap := p.Snapshot(); snap.Done != runs || snap.Executed != runs || snap.Total != runs {
			t.Errorf("workers=%d: progress %+v, want %d/%d", workers, snap, runs, runs)
		}
		var observed uint64
		for _, fam := range e.Metrics.Snapshot().Families {
			if fam.Name == mRunSeconds {
				for _, ser := range fam.Series {
					observed += ser.Hist.Count
				}
			}
		}
		if observed != runs {
			t.Errorf("workers=%d: run-time histograms hold %d runs, want %d", workers, observed, runs)
		}
	}
}

// TestStoreHoldsOneRecordPerRun: a cold joined, observed sweep over
// CI's label list writes one record per run — each run's store key, the
// baselines' included, once — and no label's. A second engine then
// serves the list from the store alone: no run, one hit per run, the
// same bytes, at 1, 2 and 8 workers, its progress N/N.
func TestStoreHoldsOneRecordPerRun(t *testing.T) {
	specs := ciLabelSpecs(t)
	var runs []string
	for _, s := range specs {
		if s.Version != core.Seq {
			runs = append(runs, StoreKey(SeqSpecOf(s), true))
		}
		runs = append(runs, StoreKey(s.Canonical(), true))
	}
	slices.Sort(runs)
	runs = slices.Compact(runs)
	if len(runs) != 42 {
		t.Fatalf("the CI list has %d runs, want 42", len(runs))
	}

	build := func(workers int, dir string) *Engine {
		e := New()
		e.Workers = workers
		e.JoinSpeedup, e.Observe = true, true
		if dir != "" {
			e.Store = openStoreT(t, dir)
		}
		return e
	}
	want := streamT(t, build(2, ""), specs)
	dir := t.TempDir()
	cold := build(2, dir)
	if got := streamT(t, cold, specs); !bytes.Equal(got, want) {
		t.Fatalf("cold store changed the sweep bytes")
	}
	if got := cold.HostStats().RunsStarted; got != int64(len(runs)) {
		t.Errorf("cold sweep started %d runs, want %d", got, len(runs))
	}
	keys := cold.Store.Keys()
	if !slices.Equal(keys, runs) {
		t.Errorf("store holds\n%s\nwant exactly the runs' keys\n%s", strings.Join(keys, "\n"), strings.Join(runs, "\n"))
	}
	if puts := cold.Store.Stats().Puts; puts != int64(len(runs)) {
		t.Errorf("%d puts for %d runs, want one each", puts, len(runs))
	}

	for _, workers := range []int{1, 2, 8} {
		warm := build(workers, dir)
		p := NewProgress(UniqueRuns(specs, true), nil, warm)
		warm.OnRunDone, warm.OnStoreHit = p.RunDone, p.StoreHit
		if got := streamT(t, warm, specs); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: warm store changed the sweep bytes", workers)
		}
		hs := warm.HostStats()
		if hs.RunsStarted != 0 || hs.StoreHits != int64(len(runs)) {
			t.Errorf("workers=%d: warm pass started %d runs with %d store hits, want 0 and %d",
				workers, hs.RunsStarted, hs.StoreHits, len(runs))
		}
		if snap := p.Snapshot(); snap.Done != len(runs) || snap.Total != len(runs) || snap.DiskHits != len(runs) {
			t.Errorf("workers=%d: warm progress %+v, want %d/%d from %d disk hits", workers, snap, len(runs), len(runs), len(runs))
		}
		if got := warm.Store.Stats().Puts; got != 0 {
			t.Errorf("workers=%d: warm pass wrote %d records", workers, got)
		}
	}
}

// TestStoreOfRequestedKeysIsServed: a store written the way builds
// before the run-keyed store wrote it — every requested spec's record,
// labels included, under its own key — serves a joined sweep
// byte-identically. Only the runs whose canonical key no spec asked for
// execute, once each, and are written back under that key.
func TestStoreOfRequestedKeysIsServed(t *testing.T) {
	specs := labelHeavySpecs()
	plain := New()
	plain.JoinSpeedup = true
	want := streamT(t, plain, specs)

	st := openStoreT(t, t.TempDir())
	ref := New()
	asked := map[string]bool{}
	put := func(s Spec) {
		res, err := ref.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		rec := RecordOf(s, res, nil)
		line, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(StoreKey(s, false), line); err != nil {
			t.Fatal(err)
		}
		asked[s.Key()] = true
	}
	for _, s := range specs {
		put(s)
		if s.Version != core.Seq {
			put(SeqSpecOf(s))
		}
	}
	p := PlanRuns(specs, true)
	var missing []string
	for pos := 0; pos < p.Len(); pos++ {
		if !asked[p.Key(pos)] {
			missing = append(missing, StoreKey(p.Spec(pos), false))
		}
	}
	if len(missing) == 0 || len(missing) == p.Len() {
		t.Fatalf("%d of %d runs missing: the list must mix stored and label-only runs", len(missing), p.Len())
	}

	e := New()
	e.JoinSpeedup = true
	e.Store = st
	if got := streamT(t, e, specs); !bytes.Equal(got, want) {
		t.Fatalf("a store of requested keys changed the sweep bytes:\n%s\nwant\n%s", got, want)
	}
	hs := e.HostStats()
	if hs.RunsStarted != int64(len(missing)) || hs.StoreHits != int64(p.Len()-len(missing)) {
		t.Errorf("%d runs started, %d store hits; want %d and %d", hs.RunsStarted, hs.StoreHits, len(missing), p.Len()-len(missing))
	}
	keys := st.Keys()
	for _, k := range missing {
		if _, ok := slices.BinarySearch(keys, k); !ok {
			t.Errorf("executed run %s was not written back under its own key", k)
		}
	}
}

// ciLabelSpecs is the list of CI's label-heavy sweep smoke, as dsmrun
// expands it: 128 specs, 42 executions joined.
func ciLabelSpecs(t *testing.T) []Spec {
	t.Helper()
	axes, err := ParseAxes(strings.Fields("app=Jacobi,MGS version=seq,xhpf,pvme,tmk procs=2,4 protocol=lrc,hlrc homepolicy=static,firsttouch contention=0,2"))
	if err != nil {
		t.Fatal(err)
	}
	specs := axes.Specs(Spec{Scale: core.SmallScale})
	for i := range specs {
		specs[i] = specs[i].Normalize()
	}
	return specs
}

// churnStyleSpecs is a many-small-runs list in a shuffled order: every
// application under four versions, three machine sizes, both protocols,
// with and without contention, generated programs under both back
// ends, and a few sequential and mid-scale specs besides.
func churnStyleSpecs() []Spec {
	specs := Axes{
		Apps:        AppNames(),
		Versions:    []core.Version{core.Tmk, core.SPF, core.XHPF, core.PVMe},
		Procs:       []int{2, 4, 8},
		Protocols:   proto.Names(),
		Contentions: []int{0, 2},
	}.Specs(Spec{Scale: core.SmallScale})
	for seed := 1; seed <= 20; seed++ {
		for _, v := range []core.Version{core.SPFGen, core.XHPFGen} {
			specs = append(specs, Spec{App: fmt.Sprintf("gen-%d", seed), Version: v, Procs: 4, Scale: core.SmallScale})
		}
	}
	specs = append(specs,
		Spec{App: "Jacobi", Version: core.Seq, Procs: 1, Scale: core.SmallScale},
		Spec{App: "gen-3", Version: core.Seq, Procs: 1, Scale: core.SmallScale},
		Spec{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.MidScale},
		Spec{App: "RB-SOR", Version: core.XHPF, Procs: 2, Scale: core.MidScale, Protocol: proto.HomeLRC})
	rand.New(rand.NewSource(61)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// refRuns is the run list by its definition: per spec in order, its
// baseline when joining a non-seq spec, then its canonical run, each
// distinct one once.
func refRuns(specs []Spec, join bool) []Spec {
	var runs []Spec
	add := func(s Spec) {
		if !slices.Contains(runs, s) {
			runs = append(runs, s)
		}
	}
	for _, s := range specs {
		if join && s.Version != core.Seq {
			add(SeqSpecOf(s))
		}
		add(s.Canonical())
	}
	return runs
}

// TestPlanMatchesItsReference: PlanRuns lists the reference's runs, in
// its order, each with its key and store keys; every spec's positions
// resolve to its canonical run and to the baseline SeqSpecOf names (-1
// for none); and the CI list costs 42 runs.
func TestPlanMatchesItsReference(t *testing.T) {
	for name, specs := range map[string][]Spec{"ci labels": ciLabelSpecs(t), "churn": churnStyleSpecs()} {
		for _, join := range []bool{false, true} {
			p := PlanRuns(specs, join)
			want := refRuns(specs, join)
			if p.Len() != len(want) {
				t.Fatalf("%s, join=%v: %d runs, reference %d", name, join, p.Len(), len(want))
			}
			for pos, w := range want {
				if k := p.runs[pos]; p.Spec(pos) != w || p.Key(pos) != w.Key() || k.storeKey(true) != StoreKey(w, true) {
					t.Fatalf("%s, join=%v: run %d is %+v %q, reference %+v", name, join, pos, p.Spec(pos), k.obsKey, w)
				}
			}
			for i, s := range specs {
				if got := p.Spec(int(p.Run[i])); got != s.Canonical() {
					t.Fatalf("%s, join=%v: spec %d (%s) resolves to run %s", name, join, i, s.Key(), got.Key())
				}
				b := p.Base[i]
				if joins := join && s.Version != core.Seq; (b >= 0) != joins {
					t.Fatalf("%s, join=%v: spec %d (%s) has baseline position %d", name, join, i, s.Key(), b)
				}
				if b >= 0 && p.Spec(int(b)) != SeqSpecOf(s) {
					t.Fatalf("%s: spec %s joins %s, want %s", name, s.Key(), p.Key(int(b)), SeqSpecOf(s).Key())
				}
			}
		}
	}
	if got := UniqueRuns(ciLabelSpecs(t), true); got != 42 {
		t.Errorf("UniqueRuns of the CI list = %d, want 42", got)
	}
}

// TestRunFailureReportedOncePerRun: an execution that fails under three
// labels is one failure. Sweep's and StreamWith's joined errors carry it
// once, in the same text, and the stream still counts each label's
// record as failed.
func TestRunFailureReportedOncePerRun(t *testing.T) {
	var specs []Spec
	for _, p := range []proto.Name{"", proto.HomelessLRC, proto.HomeLRC} {
		specs = append(specs, Spec{App: "Nope", Version: core.XHPF, Procs: 2, Scale: core.SmallScale, Protocol: p})
	}
	failing := func() *Engine {
		e := New()
		e.Lookup = func(name string) (core.App, error) { return nil, fmt.Errorf("exp: unknown application %q", name) }
		return e
	}
	_, sweepErr := failing().Sweep(specs)
	stats, streamErr := failing().StreamWith(io.Discard, specs, nil)
	for name, err := range map[string]error{"Sweep": sweepErr, "StreamWith": streamErr} {
		if err == nil || err.Error() != `exp: unknown application "Nope"` {
			t.Errorf("%s error = %v, want the failure once", name, err)
		}
	}
	if stats.Records != 3 || stats.Failed != 3 {
		t.Errorf("stream stats %+v, want 3 records, 3 failed", stats)
	}
}
