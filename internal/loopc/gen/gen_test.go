package gen

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestGenerateDeterministic pins the seed contract: Generate is a pure
// function of the seed, byte for byte.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1000, 123456789} {
		a, b := Generate(seed).JSON(), Generate(seed).JSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGenerateValid checks the generator keeps its own envelope promise
// over a seed sweep.
func TestGenerateValid(t *testing.T) {
	for seed := int64(1); seed <= 128; seed++ {
		ps := Generate(seed)
		if err := ps.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ps.Name != "gen-"+itoa(seed) {
			t.Fatalf("seed %d: name %q", seed, ps.Name)
		}
	}
}

func itoa(v int64) string {
	var b []byte
	if v == 0 {
		return "0"
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestJSONRoundTrip: a spec survives the corpus encoding bitwise.
func TestJSONRoundTrip(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		ps := Generate(seed)
		back, err := Parse(ps.JSON())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(ps.JSON(), back.JSON()) {
			t.Fatalf("seed %d: JSON round trip changed the spec", seed)
		}
	}
}

// TestGoLiteral: the committable repro form parses back to the same
// spec.
func TestGoLiteral(t *testing.T) {
	ps := Generate(5)
	lit := GoLiteral(ps)
	inner := strings.TrimSuffix(strings.TrimPrefix(lit, "gen.MustParse(`"), "`)")
	back := MustParse(inner)
	if !bytes.Equal(ps.JSON(), back.JSON()) {
		t.Fatal("GoLiteral round trip changed the spec")
	}
}

// TestMutateDeterministic: Mutate is a pure function of (spec, data)
// and never touches its input.
func TestMutateDeterministic(t *testing.T) {
	ps := Generate(9)
	orig := ps.JSON()
	data := []byte{0, 3, 5, 17, 7, 2, 9, 1, 4, 0}
	a, b := Mutate(ps, data).JSON(), Mutate(ps, data).JSON()
	if !bytes.Equal(a, b) {
		t.Fatal("two mutations with the same bytes differ")
	}
	if !bytes.Equal(ps.JSON(), orig) {
		t.Fatal("Mutate modified its input spec")
	}
	if bytes.Equal(a, orig) {
		t.Fatal("mutation bytes produced no change")
	}
}

// TestMutateRejectable: some mutations must leave the envelope (that is
// the point — the fuzzer probes the boundary), and Check must catch
// them rather than let an invalid program run.
func TestMutateRejectable(t *testing.T) {
	ps := Generate(2)
	rejected := 0
	for b0 := 0; b0 < 12; b0++ {
		for b1 := 0; b1 < 8; b1++ {
			m := Mutate(ps, []byte{byte(b0), byte(b1)})
			if m.Check() != nil {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no single-step mutation was rejected; Check is too loose to guard mutation fuzzing")
	}
}

func TestParseSeed(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		ok   bool
	}{
		{"gen-0", 0, true},
		{"gen-7", 7, true},
		{"gen-42", 42, true},
		{"gen-123456789", 123456789, true},
		{"gen-9223372036854775807", math.MaxInt64, true},
		{"gen-9223372036854775808", 0, false},
		{"gen-99999999999999999999", 0, false},
		{"gen--1", 0, false},
		{"gen-+5", 0, false},
		{"gen-xx", 0, false},
		{"gen-4x", 0, false},
		{"gen-4 ", 0, false},
		{"gen-007", 0, false},
		{"gen-00", 0, false},
		{"Gen-1", 0, false},
		{"jacobi", 0, false},
		{"gen-", 0, false},
		{"gen", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		seed, ok := ParseSeed(c.name)
		if ok != c.ok || seed != c.seed {
			t.Errorf("ParseSeed(%q) = (%d, %v), want (%d, %v)", c.name, seed, ok, c.seed, c.ok)
		}
		// The accept set is exactly the names Sprintf would print.
		if ok && c.name != fmt.Sprintf("gen-%d", seed) {
			t.Errorf("ParseSeed accepted non-canonical %q", c.name)
		}
	}
	// The committed corpus is seeds 1..40 (difftest.CorpusSeeds).
	for k := int64(1); k <= 40; k++ {
		name := Generate(k).Name
		if seed, ok := ParseSeed(name); !ok || seed != k {
			t.Errorf("ParseSeed(Generate(%d).Name = %q) = (%d, %v)", k, name, seed, ok)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParseSeed("gen-123456789") }); n != 0 {
		t.Errorf("ParseSeed allocates %v times per call, want 0", n)
	}
}

// TestAppSeqMatchesOracle: the measured sequential runner reproduces
// the oracle checksum exactly (the oracle at one block IS the reference
// semantics).
func TestAppSeqMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 4, 13} {
		a := AppForSeed(seed)
		cfg := a.Config(core.SmallScale, 1)
		cfg.Costs = model.SP2()
		cfg.App = model.DefaultAppCosts()
		res, err := a.Run(core.Seq, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := a.ExpectedChecksum(core.Seq, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Checksum != want {
			t.Fatalf("seed %d: seq checksum %v, oracle %v", seed, res.Checksum, want)
		}
	}
}

// TestOracleStmtErrors: a spec broken at a specific statement reports
// the statement index (the analyzer/validator diagnostics contract).
func TestStmtIndexedErrors(t *testing.T) {
	ps := Generate(1)
	m := ps.Clone()
	// Point the first nest's first RHS ref at an undeclared array.
	var first *AccessSpec
	m.Nests[0].Stmts[0].RHS.walk(func(a *AccessSpec) {
		if first == nil {
			first = a
		}
	})
	if first == nil {
		t.Skip("seed 1 first stmt has no ref")
	}
	first.Array = "nosuch"
	p, err := m.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	err = p.Validate()
	if err == nil || !strings.Contains(err.Error(), "stmt 0") {
		t.Fatalf("want stmt-indexed validate error, got %v", err)
	}
}
