package exp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// The codec's tests hold it to encoding/json from both sides:
// AppendRecord against json.Marshal byte for byte, and ValidateLine
// against validateReference — the reference decoder plus Validate,
// which is all ValidateLine was before the codec — on arbitrary bytes.
//
// Mutation note. Each of these edits to parseCanonical was made and
// FuzzValidateLine run without -fuzz (its seeds only); each fails it,
// and is reverted:
//   - dropping the duplicate-key check (`seen&(1<<k) != 0`): on the
//     "queue_kind_ns twice" seed encoding/json merges the second object
//     into the first one's map and the record is valid; a parser that
//     lets the second replace the first decodes another map, whose sum
//     is rejected. (A scalar member given twice would not show it: the
//     last one wins both ways.)
//   - dropping the leading-zero check in scanNumber: `{"procs":01}`
//     parses on the fast path where the reference reports a syntax
//     error, and the "canonical lines are valid JSON" clause fails too;
//   - dropping the trailing-bytes check (`i+1 == len(line)` at the closing
//     brace): json.Decoder itself ignores bytes after the first value,
//     so the two verdicts still agree — it is the "canonical lines are
//     valid JSON" clause of the fuzz target that fails, on the
//     "trailing bytes" seed.

// validateReference is ValidateLine with the reference decoder only.
func validateReference(line []byte) (Record, error) {
	rec, err := decodeReference(line)
	if err != nil {
		return Record{}, err
	}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// randomStrings are the string field values randomRecord draws from:
// registry-like names, and every class json.Marshal treats specially.
var randomStrings = []string{
	"", "Jacobi", "3-D FFT", "tmk", "small", "lrc", "firsttouch", "gen-7",
	`say "hi"`, `back\slash`, "a<b", "a>b", "a&b", "tab\there", "line\nbreak",
	"caf\u00e9", "bad\xffbyte", "line\u2028separator", "del\x7f", "\x00", "{", "}", ",", ":",
}

var randomInts = []int64{0, 1, -1, 7, 1000000007, math.MaxInt64, math.MinInt64, math.MaxInt32, -1 << 40}

var randomUints = []uint64{0, 1, 9, math.MaxUint64, 1 << 63, math.MaxInt64, 14695981039346656037}

var randomFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 461.0546875, 1e-6, 1e-7, 9.99e-7, 1e-9, 1.5e-10, -3e-7,
	1e20, 1e21, 9.99e20, 1.7e22, -1e21, 1e100, 1e-100, 123456789.125,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi, 0.3007421652295875,
}

// fill sets every field of the struct v to a random value, through
// reflection: a field added to Record is covered the day it is added.
func fill(rng *rand.Rand, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			fill(rng, f)
		case reflect.String:
			f.SetString(randomStrings[rng.Intn(len(randomStrings))])
		case reflect.Int, reflect.Int64:
			switch rng.Intn(3) {
			case 0:
				f.SetInt(randomInts[rng.Intn(len(randomInts))])
			case 1:
				f.SetInt(rng.Int63() >> uint(rng.Intn(63)))
			}
		case reflect.Uint64:
			switch rng.Intn(3) {
			case 0:
				f.SetUint(randomUints[rng.Intn(len(randomUints))])
			case 1:
				f.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
			}
		case reflect.Float64:
			switch rng.Intn(4) {
			case 0:
				f.SetFloat(randomFloats[rng.Intn(len(randomFloats))])
			case 1:
				f.SetFloat(math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52))
			case 2:
				f.SetFloat(float64(rng.Int63n(1e12)) / 1e9)
			}
		case reflect.Bool:
			f.SetBool(rng.Intn(2) == 0)
		case reflect.Map:
			switch rng.Intn(3) {
			case 0:
				f.Set(reflect.ValueOf(map[string]int64{}))
			case 1:
				m := map[string]int64{}
				for n := rng.Intn(6); n >= 0; n-- {
					m[randomStrings[rng.Intn(len(randomStrings))]] = randomInts[rng.Intn(len(randomInts))]
				}
				f.Set(reflect.ValueOf(m))
			}
		default:
			panic("codec_test: Record has a field of kind " + f.Kind().String() + "; teach fill and the codec about it")
		}
	}
}

func randomRecord(rng *rand.Rand) Record {
	var r Record
	fill(rng, reflect.ValueOf(&r).Elem())
	return r
}

// checkAgainstMarshal holds AppendRecord to json.Marshal on one record:
// the same bytes, appended after what dst held, or an error when and as
// json.Marshal fails.
func checkAgainstMarshal(t *testing.T, r Record) {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := AppendRecord([]byte("prefix"), &r)
	if werr != nil {
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("AppendRecord error = %v, json.Marshal's = %v (record %+v)", gerr, werr, r)
		}
		if string(got) != "prefix" {
			t.Fatalf("AppendRecord failed and left %q in the buffer", got)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("AppendRecord: %v; json.Marshal accepts %+v", gerr, r)
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("AppendRecord differs from json.Marshal:\n got %s\nwant %s", got[len("prefix"):], want)
	}
}

func TestAppendRecordMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 25000; i++ {
		checkAgainstMarshal(t, randomRecord(rng))
	}

	base := Record{Spec: Spec{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.SmallScale, Protocol: proto.HomelessLRC}}
	for _, f := range randomFloats {
		r := base
		r.TimeSeconds, r.Checksum, r.SeqSeconds, r.Speedup = f, -f, f, -f
		checkAgainstMarshal(t, r)
	}
	for _, n := range randomInts {
		r := base
		r.Procs, r.Contention, r.SchemaVersion = int(n), int(n), int(n)
		r.TimeNanos, r.Msgs, r.Bytes, r.QueueNanos, r.BDOtherNanos = n, n, n, n, n
		checkAgainstMarshal(t, r)
	}
	for _, n := range randomUints {
		r := base
		r.Digest = n
		checkAgainstMarshal(t, r)
	}
	for _, s := range randomStrings {
		r := base
		r.App, r.Error = s, s
		r.Version, r.Scale, r.Protocol, r.HomePolicy = core.Version(s), core.Scale(s), proto.Name(s), proto.PolicyName(s)
		r.QueueKindNanos = map[string]int64{s: 1, "barrier": 2}
		checkAgainstMarshal(t, r)
	}
	for _, m := range []map[string]int64{nil, {}, {"page": 1}, {"page": 3, "barrier": 2, "diff": -1, "lock": 0, "data": math.MaxInt64}} {
		r := base
		r.QueueKindNanos = m
		checkAgainstMarshal(t, r)
	}

	// A non-finite float in any float field fails like json.Marshal.
	floats := 0
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := reflect.ValueOf(&base).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() != reflect.Float64 {
				continue
			}
			r := base
			reflect.ValueOf(&r).Elem().Field(i).SetFloat(bad)
			if _, err := json.Marshal(r); err == nil {
				t.Fatalf("json.Marshal accepts %v in %s", bad, v.Type().Field(i).Name)
			}
			checkAgainstMarshal(t, r)
			floats++
		}
	}
	if floats != 3*4 {
		t.Errorf("checked %d non-finite cases, want 4 float fields x 3 values", floats)
	}
}

// TestFieldTableMatchesStruct: the codec's field table is the struct,
// in order — the keys and omitempty flags its tags declare, and a
// pointer to each field, of the field's kind.
func TestFieldTableMatchesStruct(t *testing.T) {
	var r Record
	fs := r.fields()
	n := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Struct {
				walk(v.Field(i))
				continue
			}
			key, opts, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if n >= len(fs) {
				t.Fatalf("Record has more than the table's %d fields: %s", len(fs), key)
			}
			if fs[n].key != key || fs[n].omit != (opts == "omitempty") {
				t.Errorf("field %d: table has %q omit=%v, struct tag says %q %q", n, fs[n].key, fs[n].omit, key, opts)
			}
			if p := reflect.ValueOf(fs[n].ptr); p.Pointer() != v.Field(i).Addr().Pointer() || p.Type().Elem().Kind() != v.Field(i).Kind() {
				t.Errorf("field %d (%s): table points at another field, or at another kind", n, key)
			}
			n++
		}
	}
	walk(reflect.ValueOf(&r).Elem())
	if n != numFields {
		t.Errorf("Record has %d fields, numFields = %d", n, numFields)
	}
}

// goldenLines reads the committed golden records: observed, joined
// records of every application and version, many carrying diff_bytes
// and per-kind queue times.
func goldenLines(tb testing.TB) [][]byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "harness", "testdata", "golden-small.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(b), []byte("\n"))
}

// sweepLines streams a small sweep that has one of every kind of
// record the engine emits — plain, observed, joined, contended
// (queue_kind_ns), under a migrating home policy, failed — plain and
// with the fabric worker's stamp. The failed run's error text quotes
// the version, so its lines are escaped: the only ones not in canonical
// form.
func sweepLines(tb testing.TB) [][]byte {
	tb.Helper()
	jacobi := Spec{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.SmallScale}
	contended, migrating, failing := jacobi, jacobi, jacobi
	contended.Procs, contended.Contention = 8, 1
	migrating.Protocol, migrating.HomePolicy = proto.HomeLRC, proto.FirstTouchPolicy
	failing.Version = "bogus"
	specs := []Spec{jacobi, contended, migrating, failing,
		{App: "Jacobi", Version: core.Seq, Procs: 1, Scale: core.SmallScale},
		{App: "RB-SOR", Version: core.XHPF, Procs: 2, Scale: core.SmallScale, Contention: -1},
		genSpec}
	var out bytes.Buffer
	for _, observe := range []bool{false, true} {
		e := New()
		e.Workers, e.Observe, e.JoinSpeedup = 2, observe, observe
		for _, stamp := range []func(*Record){nil, func(r *Record) { r.SchemaVersion = SchemaVersion }} {
			if _, err := e.StreamWith(&out, specs, stamp); err == nil {
				tb.Fatal("the sweep's bogus version ran")
			}
		}
	}
	// An error record whose text needs no escaping, as the engine
	// writes for a NaN checksum.
	plain, err := AppendRecord(nil, &Record{Spec: jacobi, Error: "non-finite checksum"})
	if err != nil {
		tb.Fatal(err)
	}
	lines := append(bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")), plain)
	var escaped, kinds, migrations int
	for _, line := range lines {
		switch {
		case bytes.Contains(line, []byte(`\"bogus\"`)):
			escaped++
		case bytes.Contains(line, []byte(`"queue_kind_ns":{`)):
			kinds++
		case bytes.Contains(line, []byte(`"migrations":`)):
			migrations++
		}
	}
	if len(lines) != 4*len(specs)+1 || escaped != 4 || kinds == 0 || migrations == 0 {
		tb.Fatalf("sweep gave %d lines: %d escaped, %d contended, %d migrating", len(lines), escaped, kinds, migrations)
	}
	return lines
}

// nonCanonical has one line per class the fast parser must leave to
// the reference decoder, valid or not.
var nonCanonical = map[string]string{
	"escaped string":      `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":0,"time_seconds":0,"msgs":0,"bytes":0,"checksum":0,"error":"unsupported version \"x\""}`,
	"escaped key":         `{"\u0061pp":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}`,
	"non-ASCII string":    `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":0,"time_seconds":0,"msgs":0,"bytes":0,"checksum":0,"error":"caf` + "é" + `"}`,
	"control byte":        "{\"app\":\"Jac\tobi\"}",
	"whitespace inside":   `{"app": "Jacobi", "version": "tmk", "procs": 2, "scale": "small", "time_ns": 1000, "time_seconds": 0.000001, "msgs": 0, "bytes": 0, "checksum": 1}`,
	"whitespace before":   ` {"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}`,
	"case-folded key":     `{"App":"Jacobi","VERSION":"tmk","procs":2,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}`,
	"duplicate key":       `{"app":"Jacobi","version":"tmk","procs":2,"procs":4,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}`,
	"queue_kind_ns twice": `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","contention":2,"time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1,"queue_ns":5,"queue_out_ns":5,"queue_kind_ns":{"page":2},"queue_kind_ns":{"barrier":3}}`,
	"duplicate map key":   `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","contention":2,"time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1,"queue_ns":5,"queue_out_ns":5,"queue_kind_ns":{"page":2,"page":5}}`,
	"null":                `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","protocol":null,"time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1,"queue_kind_ns":null}`,
	"trailing bytes":      `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}}`,
	"trailing newline":    `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}` + "\n",
	"second object":       `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}{"app":"x"}`,
	"int out of range":    `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":9223372036854775808,"time_seconds":0,"msgs":0,"bytes":0,"checksum":1}`,
	"float out of range":  `{"checksum":1e400}`,
	"unknown key":         `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1,"colour":3}`,
	"leading zero":        `{"procs":01}`,
	"fraction in an int":  `{"procs":2.0}`,
	"exponent in an int":  `{"time_ns":1e3}`,
	"retired fifo key":    `{"app":"Jacobi","version":"tmk","procs":2,"scale":"small","fifo":true,"time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1}`,
	"string for a number": `{"procs":"2"}`,
	"plus sign":           `{"checksum":+1}`,
	"bare fraction":       `{"checksum":.5}`,
	"hex float":           `{"checksum":0x1p-2}`,
	"truncated":           `{"app":"Jacobi","version":"tm`,
	"empty object":        `{}`,
	"array":               `[1,2]`,
	"garbage":             `not json at all`,
	"empty":               ``,
}

// TestNonCanonicalLinesTakeTheReference: every class above is refused
// by the fast parser — so it is the reference decoder that accepts or
// rejects it — and ValidateLine's verdict is the reference's.
func TestNonCanonicalLinesTakeTheReference(t *testing.T) {
	accepted := 0
	for name, line := range nonCanonical {
		var rec Record
		if parseCanonical([]byte(line), &rec) {
			t.Errorf("%s: parseCanonical took %s", name, line)
		}
		if sameVerdict(t, []byte(line)) {
			accepted++
		}
	}
	// The fallback is not only for rejects: these are valid records.
	if accepted < 8 {
		t.Errorf("only %d of the non-canonical lines are valid records; the list should keep both kinds", accepted)
	}
}

// sameVerdict holds ValidateLine to validateReference on one line —
// the same acceptance, an equal record, the same error text — and
// reports whether the line was accepted.
func sameVerdict(t *testing.T, line []byte) bool {
	t.Helper()
	got, gerr := ValidateLine(line)
	want, werr := validateReference(line)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("ValidateLine err = %v, reference err = %v, on %q", gerr, werr, line)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("ValidateLine says %q, reference says %q, on %q", gerr, werr, line)
	case !reflect.DeepEqual(got, want) || floatBits(got) != floatBits(want): // DeepEqual has -0 == 0
		t.Fatalf("ValidateLine decoded %+v, reference %+v, from %q", got, want, line)
	}
	return gerr == nil
}

// valueTokens are what TestValidateLineOnRearrangedLines writes in
// place of a member's value: every JSON value kind, and numbers on both
// sides of each rule of the grammar and of each range.
var valueTokens = []string{
	`0`, `-0`, `1`, `-1`, `7`, `01`, `-01`, `00`, `1.0`, `2.0`, `1.`, `.5`, `-.5`, `0.5`, `-`, `+1`, `1e3`, `1E3`, `1e+3`, `1e-3`,
	`1e`, `1e+`, `0e0`, `0.1e1`, `1e400`, `-1e400`, `1e-400`, `4e-324`, `1e21`, `1e-7`, `1.7976931348623157e308`, `1.7976931348623159e308`,
	`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`, `461.0546875`,
	`true`, `false`, `null`, `tru`, `True`, `""`, `"x"`, `"tmk"`, `"small"`, `"lrc"`, `"hlrc"`, `"firsttouch"`, `"Jacobi"`, `"a\nb"`, `"é"`, "\"a\tb\"",
	`{}`, `{"page":1}`, `{"page":1,"barrier":2}`, `{"page":1,"page":1}`, `{"page":1,}`, `{"page":1.5}`, `{"page":"1"}`, `{"pa\u0067e":1}`, `{"page":null}`, `{"page" :1}`,
	`[]`, `[1]`, `{`, `}`, `"`, ``, ` 1`, `1 `,
}

// TestValidateLineOnRearrangedLines is the differential check at the
// level of members rather than bytes: real record lines with members
// shuffled, dropped, doubled, renamed and given other values, so that
// every field meets every kind of value in every position.
func TestValidateLineOnRearrangedLines(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lines := append(goldenLines(t), sweepLines(t)...)
	var keys []string
	for _, f := range new(Record).fields() {
		keys = append(keys, f.key)
	}
	keys = append(keys, "App", "colour", "", "time_n", "time_nss")
	taken, accepted := 0, 0
	for i := 0; i < 40000; i++ {
		// Split a line into its members: no string in these lines
		// holds `,"`, and queue_kind_ns is put back together below.
		line := lines[rng.Intn(len(lines))]
		var members []string
		for _, m := range strings.Split(string(line[1:len(line)-1]), `,"`) {
			if n := len(members); n > 0 && strings.Count(members[n-1], "{") > strings.Count(members[n-1], "}") {
				members[n-1] += `,"` + m
			} else {
				members = append(members, `"`+strings.TrimPrefix(m, `"`))
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			j := rng.Intn(len(members))
			key, value, _ := strings.Cut(members[j], ":")
			switch rng.Intn(6) {
			case 0:
				rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
			case 1:
				members = append(members[:j], members[j+1:]...)
			case 2:
				members = append(members, members[j])
			case 3:
				members[j] = `"` + keys[rng.Intn(len(keys))] + `":` + value
			case 4:
				members[j] = key + ":" + valueTokens[rng.Intn(len(valueTokens))]
			case 5:
				members = append(members, `"`+keys[rng.Intn(len(keys))]+`":`+valueTokens[rng.Intn(len(valueTokens))])
			}
			if len(members) == 0 {
				break
			}
		}
		mutant := []byte("{" + strings.Join(members, ",") + "}")
		var rec Record
		if parseCanonical(mutant, &rec) {
			taken++
		}
		if sameVerdict(t, mutant) {
			accepted++
		}
	}
	// The mutants must reach both parsers and both verdicts.
	if taken < 4000 || taken > 36000 || accepted < 2000 {
		t.Errorf("of 40000 mutants the fast path took %d and %d were valid: the mix is lopsided", taken, accepted)
	}
}

func floatBits(r Record) [4]uint64 {
	return [4]uint64{math.Float64bits(r.TimeSeconds), math.Float64bits(r.Checksum),
		math.Float64bits(r.SeqSeconds), math.Float64bits(r.Speedup)}
}

func FuzzValidateLine(f *testing.F) {
	for _, line := range goldenLines(f) {
		f.Add(line)
	}
	for _, line := range sweepLines(f) {
		f.Add(line)
	}
	for _, line := range nonCanonical {
		f.Add([]byte(line))
	}
	for _, line := range ownedLines(f) {
		f.Add(line)
	}
	// diff_bytes is a part of bytes: a line within it, and one past it.
	f.Add([]byte(`{"app":"MGS","version":"tmk","procs":2,"scale":"small","protocol":"hlrc","time_ns":1000,"time_seconds":0.000001,"msgs":4,"bytes":4096,"diff_bytes":1024,"checksum":1}`))
	f.Add([]byte(`{"app":"MGS","version":"tmk","procs":2,"scale":"small","protocol":"hlrc","time_ns":1000,"time_seconds":0.000001,"msgs":4,"bytes":4096,"diff_bytes":8192,"checksum":1}`))
	// digest is a uint64: its largest value, and one that does not fit.
	f.Add([]byte(`{"app":"Jacobi","version":"seq","procs":1,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1,"digest":18446744073709551615}`))
	f.Add([]byte(`{"app":"Jacobi","version":"seq","procs":1,"scale":"small","time_ns":1000,"time_seconds":0.000001,"msgs":0,"bytes":0,"checksum":1,"digest":-1}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		sameVerdict(t, line)
		// Canonical form is a subset of JSON: whatever the fast parser
		// takes is one valid JSON value, with nothing around it.
		var rec Record
		if parseCanonical(line, &rec) && !(json.Valid(line) && line[0] == '{' && line[len(line)-1] == '}') {
			t.Fatalf("parseCanonical took %q, which is not one bare JSON object", line)
		}
	})
}

// ownedLines are canonical lines whose strings take both ways out of
// the parser — a name the package holds, or a copy: registry names, a
// generated program's name, a home policy, queue_kind_ns keys (one of
// them no traffic kind), and an error text that needs no escaping.
func ownedLines(tb testing.TB) [][]byte {
	tb.Helper()
	contended := Record{Spec: Spec{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.SmallScale,
		Protocol: proto.HomeLRC, Contention: 2, HomePolicy: proto.FirstTouchPolicy},
		TimeNanos: 1000, TimeSeconds: 0.000001, Checksum: 461.0546875,
		QueueNanos: 5, QueueOutNanos: 5, QueueKindNanos: map[string]int64{"page": 2, "barrier": 3}}
	unknownKind := contended
	unknownKind.QueueKindNanos = map[string]int64{"colour": 5}
	var lines [][]byte
	for _, r := range []Record{
		contended,
		unknownKind,
		{Spec: genSpec, TimeNanos: 2000, TimeSeconds: 0.000002, Checksum: 1},
		{Spec: Spec{App: "Jacobi", Version: core.XHPF, Procs: 2, Scale: core.MidScale}, Error: "Jacobi/xhpf: non-finite checksum"},
	} {
		line, err := AppendRecord(nil, &r)
		if err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestParsedRecordOwnsItsStrings: the parser reads the line where it
// lies, and the record it fills keeps none of the line's bytes — a
// caller may reuse its buffer (the store's frame, a stream's line) as
// soon as the parse returns.
func TestParsedRecordOwnsItsStrings(t *testing.T) {
	for _, line := range ownedLines(t) {
		var want, got Record
		if !parseCanonical(bytes.Clone(line), &want) {
			t.Fatalf("not canonical: %s", line)
		}
		buf := bytes.Clone(line)
		if !parseCanonical(buf, &got) {
			t.Fatalf("not canonical: %s", line)
		}
		for i := range buf {
			buf[i] = '#'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("overwriting the line changed the record parsed from it:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestRecordLinesRoundTrip: every line the engine writes
// parses on the fast path — asserted, so a silent slide onto the
// fallback fails here and not in a benchmark — and AppendRecord of the
// parsed record is the line again. The one exception is the failed
// run's lines, whose error text is escaped.
func TestRecordLinesRoundTrip(t *testing.T) {
	for _, line := range append(goldenLines(t), sweepLines(t)...) {
		var rec Record
		canonical := parseCanonical(line, &rec)
		if escaped := bytes.IndexByte(line, '\\') >= 0; escaped {
			if canonical {
				t.Errorf("an escaped error record parsed on the fast path: %s", line)
			}
			rec, _ = decodeReference(line)
		} else if !canonical {
			t.Fatalf("not parsed on the fast path: %s", line)
		}
		sameVerdict(t, line)
		back, err := AppendRecord(nil, &rec)
		if err != nil || !bytes.Equal(back, line) {
			t.Fatalf("round trip (err %v):\n got %s\nwant %s", err, back, line)
		}
	}
}

// TestWarmStreamAllocations: a warm pass decodes, checks, joins and
// re-encodes a record and runs nothing. What a run allocates is its key
// (one string, the observed store key included) and a copy of any
// string that is not a name the package holds (a gen-<seed>
// application); a run that a later label still needs keeps its decoded
// record until then, and a baseline shared by several records is read
// once. A stored value is read into the emitter's line buffer when its
// line is written; nothing caches it. The engine's fixed cost — the run
// list, its index map, the stream's run slots, the worker goroutines —
// and the test's own output buffer are inside the numbers: 2.81 objects
// and about 1 060 bytes a record (-race adds one object a pass),
// against 4.1 and 1 530 when the prefetch decoded every warm run into a
// record-cache entry, 5.4 and 1 940 when every warm Get read its frame
// into a buffer of its own, 6.4 and 2 030 when the store held one
// record per requested key, and 9.9 and 2 870 when every spec carried
// its baseline's key and waited on a channel.
func TestWarmStreamAllocations(t *testing.T) {
	specs := serveWarmSpecs()
	st := openStoreT(t, t.TempDir())
	engine := func() *Engine {
		e := New()
		e.Workers, e.JoinSpeedup, e.Observe, e.Store = 2, true, true, st
		return e
	}
	want := streamT(t, engine(), specs)
	pass := func() {
		e := engine()
		var out bytes.Buffer
		out.Grow(len(want))
		if _, err := e.StreamWith(&out, specs, nil); err != nil {
			t.Fatal(err)
		}
		if hs := e.HostStats(); hs.RunsStarted != 0 || hs.StoreHits == 0 {
			t.Fatalf("warm pass started %d runs, hit the store %d times", hs.RunsStarted, hs.StoreHits)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatal("warm stream differs from the cold stream")
		}
	}
	n := testing.AllocsPerRun(5, pass)
	const passes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	records := float64(len(specs))
	if per := n / records; per > 2.844 {
		t.Errorf("a warm stream allocates %.3f objects a record, want at most 2.844", per)
	}
	// The race detector's instrumentation allocates beside the stream.
	if per := float64(after.TotalAlloc-before.TotalAlloc) / (passes * records); per > 1240 && !raceEnabled() {
		t.Errorf("a warm stream allocates %.0f bytes a record, want at most 1 240", per)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

var sinkLine []byte

// BenchmarkAppendRecord is the encoder on an observed, joined record,
// with json.Marshal — the encoder it replaced, and what bench/'s
// exp.encode_us_per_record probe still times — beside it.
func BenchmarkAppendRecord(b *testing.B) {
	e := New()
	e.Observe, e.JoinSpeedup = true, true
	rec := recordT(b, e, Spec{App: "Jacobi", Version: core.Tmk, Procs: 4, Scale: core.SmallScale})
	if rec.Error != "" {
		b.Fatal(rec.Error)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if sinkLine, err = AppendRecord(sinkLine[:0], &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if sinkLine, err = json.Marshal(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
