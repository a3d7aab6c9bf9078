package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// refKey is Spec.Key as it stood through PR 14, frozen here: every
// store on disk and every cached stream is keyed by these strings, so
// the append-built Key must return them byte for byte. The fifo field
// is retired at its default, 0.
func refKey(s Spec) string {
	key := fmt.Sprintf("app=%s|version=%s|procs=%d|scale=%s|protocol=%s|contention=%d|fifo=0",
		s.App, s.Version, s.Procs, s.Scale, s.Protocol, s.Contention)
	if s.HomePolicy != "" {
		key += fmt.Sprintf("|homepolicy=%s", s.HomePolicy)
	}
	return key
}

// keyTable crosses every version, scale, protocol, home policy and
// contention mode, and draws the application
// (registry and generated names), the processor count and the backplane
// bound at random.
func keyTable() []Spec {
	rng := rand.New(rand.NewSource(15))
	apps := append(AppNames(), "gen-0", "gen-7", "gen-60", "gen-9223372036854775807")
	var specs []Spec
	for _, row := range core.VersionTable() {
		v := row.Version
		for _, sc := range []core.Scale{"", core.SmallScale, core.MidScale, core.PaperScale} {
			for _, p := range append([]proto.Name{""}, proto.Names()...) {
				for _, hp := range append([]proto.PolicyName{""}, proto.PolicyNames()...) {
					for _, c := range []int{-1, 0, 1 + rng.Intn(1<<20)} {
						specs = append(specs, Spec{
							App: apps[rng.Intn(len(apps))], Version: v, Procs: 1 + rng.Intn(4096),
							Scale: sc, Protocol: p, Contention: c, HomePolicy: hp,
						})
					}
				}
			}
		}
	}
	// Values no sweep produces but Key must still print as %d did.
	return append(specs,
		Spec{},
		Spec{App: "Jacobi", Version: core.Tmk, Procs: -3, Contention: -7},
		Spec{App: strings.Repeat("x", 300), Version: core.Tmk, Procs: 1 << 40},
	)
}

func TestSpecKeyMatchesFrozenReference(t *testing.T) {
	for _, s := range keyTable() {
		key := s.Key()
		if want := refKey(s); key != want {
			t.Fatalf("Key() = %q, want %q", key, want)
		}
		if s.String() != key {
			t.Fatalf("String() = %q, want the key %q", s.String(), key)
		}
		back, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if back != s {
			t.Fatalf("ParseKey(%q) = %+v, want %+v", key, back, s)
		}
	}
	s := Spec{App: "3-D FFT", Version: core.SPFOpt, Procs: 8, Scale: core.PaperScale,
		Protocol: proto.HomeLRC, Contention: -1, HomePolicy: proto.AdaptivePolicy}
	if n := testing.AllocsPerRun(100, func() { s.Key() }); n != 1 {
		t.Errorf("Key allocates %v times, want 1 (the returned string)", n)
	}
}

// frozenKeys reads testdata/keys_pr14.txt: Key() output written by the
// PR 14 build over every version × protocol × contention mode × fifo.
func frozenKeys(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "keys_pr14.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(b)), "\n")
}

// TestFrozenKeysRoundTrip: every frozen key parses back to a spec whose
// Key is the same bytes — except those that ask for fifo=1, the retired
// non-overtaking delivery, which ParseKey refuses.
func TestFrozenKeysRoundTrip(t *testing.T) {
	refused := 0
	for _, key := range frozenKeys(t) {
		s, err := ParseKey(key)
		if strings.Contains(key, "|fifo=1") {
			refused++
			if err == nil {
				t.Errorf("ParseKey(%q) = %+v, want it refused", key, s)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if s.Key() != key {
			t.Errorf("ParseKey(%q).Key() = %q", key, s.Key())
		}
	}
	if refused == 0 {
		t.Error("no frozen key carries fifo=1")
	}
}

// TestStoreWrittenUnderFrozenKeysIsServed: a store whose entries sit
// under the parent build's key strings serves every canonical spec among
// them — a hit each, nothing executed. The specs come from ParseKey, not
// from Key, so a drifted Key misses the store and runs. A label-only
// key's entry is not its run's: the run executes once, is written back
// under its own key, and streams the bytes a store-less engine gives.
func TestStoreWrittenUnderFrozenKeysIsServed(t *testing.T) {
	var keys []string
	for _, key := range frozenKeys(t) {
		if !strings.Contains(key, "|fifo=1") { // refused: TestFrozenKeysRoundTrip
			keys = append(keys, key)
		}
	}
	lines := make([][]byte, len(keys))
	var canonical, labelled []Spec
	var want bytes.Buffer
	for i, key := range keys {
		s, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		res := core.Result{Time: sim.Time(i+1) * 1000, Checksum: float64(i) + 0.5}
		if lines[i], err = json.Marshal(RecordOf(s, res, nil)); err != nil {
			t.Fatal(err)
		}
		switch {
		case s.Canonical() == s:
			canonical = append(canonical, s)
			want.Write(lines[i])
			want.WriteByte('\n')
		case s.Scale == core.SmallScale && runnable(s):
			labelled = append(labelled, s) // cheap enough to run
		}
	}
	if len(canonical) == 0 || len(labelled) == 0 {
		t.Fatalf("%d canonical and %d small labelled frozen keys, want some of each", len(canonical), len(labelled))
	}
	for _, observe := range []bool{false, true} {
		st := openStoreT(t, t.TempDir())
		for i, key := range keys {
			if observe {
				key += StoreObserveSuffix
			}
			if err := st.Put(key, lines[i]); err != nil {
				t.Fatal(err)
			}
		}
		e := New()
		e.Observe = observe
		e.Store = st
		if got := streamT(t, e, canonical); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("observe=%v: served stream differs from the stored lines", observe)
		}
		hs := e.HostStats()
		if hs.RunsStarted != 0 || hs.StoreHits != int64(len(canonical)) {
			t.Errorf("observe=%v: %d runs started, %d store hits; want 0 and %d",
				observe, hs.RunsStarted, hs.StoreHits, len(canonical))
		}

		fresh := New()
		fresh.Observe = observe
		if got, ran := streamT(t, e, labelled), streamT(t, fresh, labelled); !bytes.Equal(got, ran) {
			t.Errorf("observe=%v: label-only keys streamed\n%s\nwant\n%s", observe, got, ran)
		}
		if got := e.HostStats().RunsStarted; got != int64(len(labelled)) {
			t.Errorf("observe=%v: %d label-only keys started %d runs, want one each", observe, len(labelled), got)
		}
		for _, s := range labelled {
			if _, ok := st.Get(StoreKey(s.Canonical(), observe)); !ok {
				t.Errorf("observe=%v: the run of %s was not written back under %s", observe, s.Key(), StoreKey(s.Canonical(), observe))
			}
		}
	}
}

// runnable reports whether s's application has s's version.
func runnable(s Spec) bool {
	a, err := AppByName(s.App)
	return err == nil && slices.Contains(a.Versions(), s.Version)
}

// recordLine runs one spec and returns its record line.
func recordLine(tb testing.TB, s Spec) []byte {
	tb.Helper()
	rec := recordT(tb, New(), s)
	if rec.Error != "" {
		tb.Fatal(rec.Error)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// genSpec is a generated program's spec: the records whose validation
// used to build the program.
var genSpec = Spec{App: "gen-7", Version: core.SPFGen, Procs: 4, Scale: core.SmallScale}

// TestValidateLineBuildsNoProgram: validating a gen-<seed> record
// checks the name only, and a line in canonical form allocates only the
// strings that are not names the package holds: none for a registry
// application's line, the name itself for a generated program's. The
// reference decoder cost a dozen; generating and compiling the program
// added nearly three hundred.
func TestValidateLineBuildsNoProgram(t *testing.T) {
	for _, c := range []struct {
		s    Spec
		want float64
	}{
		{Spec{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.SmallScale}, 0},
		{genSpec, 1},
	} {
		line := recordLine(t, c.s)
		n := testing.AllocsPerRun(20, func() {
			if _, err := ValidateLine(line); err != nil {
				t.Fatal(err)
			}
		})
		if n != c.want {
			t.Errorf("ValidateLine of a %s record allocates %v times, want %v", c.s.App, n, c.want)
		}
	}
}

func TestValidateChecksApplicationName(t *testing.T) {
	good := RecordOf(genSpec, core.Result{Time: 1e6, Checksum: 1}, nil)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid gen record rejected: %v", err)
	}
	for _, app := range []string{"NoSuchApp", "jacobi", "gen-007", "gen-+7", "gen--7", "gen-", "Gen-7",
		"gen-9223372036854775808"} {
		rec := good
		rec.App = app
		err := rec.Validate()
		if err == nil || !strings.Contains(err.Error(), "unknown application") {
			t.Errorf("Validate accepted application %q (err = %v)", app, err)
		}
		// The name check and the registry agree on every name.
		if _, lerr := AppByName(app); lerr == nil {
			t.Errorf("AppByName resolves %q", app)
		}
		line, _ := json.Marshal(rec)
		if _, err := ValidateLine(line); err == nil {
			t.Errorf("ValidateLine accepted application %q", app)
		}
	}
	for _, name := range AppNames() {
		rec := good
		rec.App, rec.Version = name, core.Tmk
		if err := rec.Validate(); err != nil {
			t.Errorf("registry application %q rejected: %v", name, err)
		}
	}
}

// TestUniqueRunsCountsWhatPrefetchRuns: the progress total and the
// engine's run count come from one dedup and cannot diverge — and both
// count executions: of the grid's 16 specs (3 of them repeated) the 8
// xhpf ones are 4 runs under two protocol labels each, and its 4
// protocol-labelled baselines are 2.
func TestUniqueRunsCountsWhatPrefetchRuns(t *testing.T) {
	specs := append(testGrid(), testGrid()[:3]...)
	for join, want := range map[bool]int{false: 12, true: 14} {
		e := New()
		e.JoinSpeedup = join
		streamT(t, e, specs)
		if got, total := e.HostStats().RunsStarted, UniqueRuns(specs, join); got != int64(want) || total != want {
			t.Errorf("join=%v: engine started %d runs, UniqueRuns says %d, want %d", join, got, total, want)
		}
	}
}
