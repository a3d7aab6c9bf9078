package difftest

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/loopc/gen"
	"repro/internal/model"
	"repro/internal/proto"
)

var (
	updateCorpus = flag.Bool("update-gen-corpus", false,
		"regenerate internal/loopc/testdata/corpus from CorpusSeeds")
	updateGolden = flag.Bool("update-gen-golden", false,
		"regenerate internal/loopc/testdata/corpus_golden.json")
)

const goldenPath = "../testdata/corpus_golden.json"

// TestCorpusMatchesGenerator pins the generator: every committed corpus
// entry must be byte-identical to Generate(seed). A deliberate
// generator change regenerates with
//
//	go test ./internal/loopc/difftest -run TestCorpus -update-gen-corpus -update-gen-golden
func TestCorpusMatchesGenerator(t *testing.T) {
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		old, _ := filepath.Glob(filepath.Join(corpusDir, "*.json"))
		for _, f := range old {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, seed := range corpusSeeds() {
			ps := gen.Generate(seed)
			path := filepath.Join(corpusDir, ps.Name+".json")
			if err := os.WriteFile(path, ps.JSON(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	specs, err := loadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(corpusSeeds()) {
		t.Fatalf("corpus has %d entries, want %d (rerun with -update-gen-corpus)", len(specs), len(corpusSeeds()))
	}
	bySeed := map[int64]*gen.ProgramSpec{}
	for _, ps := range specs {
		bySeed[ps.Seed] = ps
	}
	for _, seed := range corpusSeeds() {
		committed, ok := bySeed[seed]
		if !ok {
			t.Errorf("seed %d missing from corpus", seed)
			continue
		}
		if !bytes.Equal(committed.JSON(), gen.Generate(seed).JSON()) {
			t.Errorf("seed %d: committed corpus entry differs from Generate(%d) — generator changed without -update-gen-corpus", seed, seed)
		}
	}
}

// corpusGold is one program's pinned observables: checksums per backend
// (hex float64, bitwise) and the timed-region traffic of the parallel
// backends at 4 processors — the same observables the hand-ported apps
// pin in internal/harness/traffic_golden_test.go.
type corpusGold struct {
	Name        string `json:"name"`
	SeqChecksum string `json:"seq_checksum"`
	SPF4        string `json:"spf_gen_4_checksum"`
	XHPF4       string `json:"xhpf_gen_4_checksum"`
	SPFLRCMsgs  int64  `json:"spf_gen_lrc_msgs"`
	SPFLRCBytes int64  `json:"spf_gen_lrc_bytes"`
	SPFHomeMsgs int64  `json:"spf_gen_hlrc_msgs"`
	SPFHomeByte int64  `json:"spf_gen_hlrc_bytes"`
	XHPFMsgs    int64  `json:"xhpf_gen_msgs"`
	XHPFBytes   int64  `json:"xhpf_gen_bytes"`
}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldFor measures one corpus program's golden row at 4 processors.
func goldFor(t *testing.T, ps *gen.ProgramSpec) corpusGold {
	t.Helper()
	app, err := gen.NewApp(ps)
	if err != nil {
		t.Fatal(err)
	}
	run := func(v core.Version, procs int, pn proto.Name) core.Result {
		cfg := app.Config(core.SmallScale, procs)
		cfg.Costs = model.SP2()
		cfg.App = model.DefaultAppCosts()
		cfg.Protocol = pn
		res, err := app.Run(v, cfg)
		if err != nil {
			t.Fatalf("%s/%s procs=%d: %v", ps.Name, v, procs, err)
		}
		return res
	}
	seq := run(core.Seq, 1, proto.HomelessLRC)
	spfLRC := run(core.SPFGen, 4, proto.HomelessLRC)
	spfHome := run(core.SPFGen, 4, proto.HomeLRC)
	xhpf := run(core.XHPFGen, 4, "")
	if spfHome.Checksum != spfLRC.Checksum {
		t.Fatalf("%s: protocol changed the answer: %x vs %x", ps.Name, spfHome.Checksum, spfLRC.Checksum)
	}
	return corpusGold{
		Name:        ps.Name,
		SeqChecksum: hexf(seq.Checksum),
		SPF4:        hexf(spfLRC.Checksum),
		XHPF4:       hexf(xhpf.Checksum),
		SPFLRCMsgs:  spfLRC.Stats.TotalMsgs(),
		SPFLRCBytes: spfLRC.Stats.TotalBytes(),
		SPFHomeMsgs: spfHome.Stats.TotalMsgs(),
		SPFHomeByte: spfHome.Stats.TotalBytes(),
		XHPFMsgs:    xhpf.Stats.TotalMsgs(),
		XHPFBytes:   xhpf.Stats.TotalBytes(),
	}
}

// TestCorpusGoldenTraffic pins checksums and traffic of every corpus
// program, exactly like the hand-ported apps' golden table: silent
// drift in the compiler, the runtimes or the protocols fails loudly;
// deliberate changes regenerate with -update-gen-golden.
func TestCorpusGoldenTraffic(t *testing.T) {
	specs, err := loadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		rows := make([]corpusGold, 0, len(specs))
		for _, ps := range specs {
			rows = append(rows, goldFor(t, ps))
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (rerun with -update-gen-golden)", err)
	}
	var rows []corpusGold
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	byName := map[string]corpusGold{}
	for _, g := range rows {
		byName[g.Name] = g
	}
	sample := specs
	if testing.Short() {
		sample = specs[:8]
	}
	for _, ps := range sample {
		want, ok := byName[ps.Name]
		if !ok {
			t.Errorf("%s: no golden row (rerun with -update-gen-golden)", ps.Name)
			continue
		}
		if got := goldFor(t, ps); got != want {
			t.Errorf("%s: golden drift:\n got %+v\nwant %+v\n(if deliberate, rerun with -update-gen-golden)", ps.Name, got, want)
		}
	}
}

// TestCorpusDifferential runs the full differential lattice over the
// committed corpus: seq, spf-gen under both protocols and all home
// policies, xhpf-gen — each checked bitwise against the oracle for its
// partition and for repeat determinism. Short mode samples.
func TestCorpusDifferential(t *testing.T) {
	specs, err := loadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Procs: []int{1, 2, 4, 8}, Repeats: 2}
	if testing.Short() {
		specs = specs[:8]
		opts.Procs = []int{2, 4}
	}
	for _, ps := range specs {
		divs, err := Check(ps, opts)
		if err != nil {
			t.Fatalf("%s: %v", ps.Name, err)
		}
		if len(divs) == 0 {
			continue
		}
		for _, d := range divs {
			t.Errorf("%s", d)
		}
		// Shrink and save a committable repro for the CI artifact.
		min := Minimize(ps, func(c *gen.ProgramSpec) bool {
			d, err := Check(c, Options{Procs: opts.Procs, Repeats: 1})
			return err == nil && len(d) > 0
		})
		minDivs, _ := Check(min, Options{Procs: opts.Procs, Repeats: 1})
		path, werr := WriteRepro("../testdata/failures", min, minDivs)
		if werr != nil {
			t.Errorf("writing repro: %v", werr)
		} else {
			t.Logf("minimized repro written to %s", path)
		}
	}
}

// corpusSeeds are the generator seeds of the committed corpus under
// internal/loopc/testdata/corpus. Adding a seed here and running the
// corpus test with -update-gen-corpus regenerates the files; removing
// or reordering entries invalidates the golden traffic table.
func corpusSeeds() []int64 {
	seeds := make([]int64, 0, 40)
	for s := int64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// corpusDir is the committed corpus location relative to this package.
const corpusDir = "../testdata/corpus"

// loadCorpus reads every committed corpus entry, sorted by filename.
func loadCorpus(dir string) ([]*gen.ProgramSpec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("difftest: no corpus entries in %s", dir)
	}
	specs := make([]*gen.ProgramSpec, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		ps, err := gen.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		if err := ps.Check(); err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		specs = append(specs, ps)
	}
	return specs, nil
}
