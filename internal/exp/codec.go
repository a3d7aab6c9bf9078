package exp

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/stats"
)

// This file is the one place that knows how a Record looks as bytes.
// AppendRecord writes what json.Marshal writes; parseCanonical reads
// back the lines AppendRecord can have written (and a few more) without
// encoding/json's reflection. Everything else — escaped strings,
// whitespace, nulls, duplicate keys — is not canonical and goes to the
// reference decoder behind ValidateLine, so "valid" stays defined by
// encoding/json and the codec is only ever a faster way to the same
// Record.

// field is one Record field on the wire.
type field struct {
	key  string // JSON object key
	omit bool   // omitempty: the zero value is not written
	// ptr points at the field in the record at hand: *string (the named
	// string types converted — a pointer conversion, not a copy), *int,
	// *int64, *uint64, *float64 or *map[string]int64. The codec
	// switches on the pointer's type.
	ptr any
}

// numFields is the number of Record fields, the embedded Spec's
// included; parseCanonical keeps its seen-set in one word.
const numFields = 36

var _ [64 - numFields]struct{}

// fields lists r's fields in wire order: encoding/json's order for the
// struct, the embedded Spec first. The array lives on the caller's
// stack and r does not escape through it.
func (r *Record) fields() [numFields]field {
	return [numFields]field{
		{"app", false, &r.App},
		{"version", false, (*string)(&r.Version)},
		{"procs", false, &r.Procs},
		{"scale", false, (*string)(&r.Scale)},
		{"protocol", true, (*string)(&r.Protocol)},
		{"contention", true, &r.Contention},
		{"homepolicy", true, (*string)(&r.HomePolicy)},
		{"schema_version", true, &r.SchemaVersion},
		{"time_ns", false, &r.TimeNanos},
		{"time_seconds", false, &r.TimeSeconds},
		{"msgs", false, &r.Msgs},
		{"bytes", false, &r.Bytes},
		{"diff_bytes", true, &r.DiffBytes},
		{"checksum", false, &r.Checksum},
		{"digest", true, &r.Digest},
		{"queue_ns", true, &r.QueueNanos},
		{"queued_msgs", true, &r.QueuedMsgs},
		{"queue_out_ns", true, &r.QueueOutNanos},
		{"queue_in_ns", true, &r.QueueInNanos},
		{"queue_backplane_ns", true, &r.QueueBackplaneNanos},
		{"queue_kind_ns", true, &r.QueueKindNanos},
		{"bd_total_ns", true, &r.BDTotalNanos},
		{"bd_compute_ns", true, &r.BDComputeNanos},
		{"bd_fault_ns", true, &r.BDFaultNanos},
		{"bd_barrier_ns", true, &r.BDBarrierNanos},
		{"bd_lock_ns", true, &r.BDLockNanos},
		{"bd_data_ns", true, &r.BDDataNanos},
		{"bd_queue_ns", true, &r.BDQueueNanos},
		{"bd_other_ns", true, &r.BDOtherNanos},
		{"migrations", true, &r.Migrations},
		{"redirected_flush_bytes", true, &r.RedirectedFlushBytes},
		{"stale_forwards", true, &r.StaleForwards},
		{"seq_ns", true, &r.SeqNanos},
		{"seq_seconds", true, &r.SeqSeconds},
		{"speedup", true, &r.Speedup},
		{"error", true, &r.Error},
	}
}

// AppendRecord appends r as one JSON object, byte for byte what
// json.Marshal(r) returns (no trailing newline), and returns the
// extended buffer. Like json.Marshal it fails on a NaN or infinite
// float, with json's error; dst then comes back at its original
// length.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '{')
	fs := r.fields()
	for i := range fs {
		f := &fs[i]
		var err error
		switch p := f.ptr.(type) {
		case *string:
			if *p != "" || !f.omit {
				dst = appendString(appendKey(dst, f.key), *p)
			}
		case *int:
			if *p != 0 || !f.omit {
				dst = strconv.AppendInt(appendKey(dst, f.key), int64(*p), 10)
			}
		case *int64:
			if *p != 0 || !f.omit {
				dst = strconv.AppendInt(appendKey(dst, f.key), *p, 10)
			}
		case *uint64:
			if *p != 0 || !f.omit {
				dst = strconv.AppendUint(appendKey(dst, f.key), *p, 10)
			}
		case *float64:
			if *p != 0 || !f.omit { // -0 is empty, as reflect's IsZero has it
				dst, err = appendFloat(appendKey(dst, f.key), *p)
			}
		case *map[string]int64:
			if len(*p) != 0 || !f.omit {
				dst = appendKindMap(appendKey(dst, f.key), *p)
			}
		}
		if err != nil {
			return dst[:start], err
		}
	}
	return append(dst, '}'), nil
}

// appendComma separates an object's members: a comma unless dst ends
// with the brace that opened the object.
func appendComma(dst []byte) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return dst
}

func appendKey(dst []byte, key string) []byte {
	dst = append(appendComma(dst), '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// appendString appends s as a JSON string. Printable ASCII without
// json's escaped characters is copied between quotes; anything else —
// control bytes, quotes, backslashes, the HTML characters, non-ASCII
// and invalid UTF-8 — is json.Marshal's to render.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f the way encoding/json formats a float64: the
// shortest decimal that round-trips, in %f form unless the exponent is
// below -6 or at least 21, then in %e form with a one-digit negative
// exponent unpadded (e-9, not e-09).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // json's own UnsupportedValueError
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendKindMap appends the queue_kind_ns object, keys sorted as
// encoding/json sorts them.
func appendKindMap(dst []byte, m map[string]int64) []byte {
	var buf [16]string // more than there are traffic kinds
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for _, k := range keys {
		dst = append(appendString(appendComma(dst), k), ':')
		dst = strconv.AppendInt(dst, m[k], 10)
	}
	return append(dst, '}')
}

// parseCanonical fills r from line and reports whether line is in
// canonical form: exactly one JSON object with nothing before, after or
// between its tokens; each key one of the Record's, spelled exactly, at
// most once, in any order; integers as plain digit strings that fit the
// field; floats by JSON's number grammar and in float64 range; strings
// of ASCII without escapes; true or false; queue_kind_ns an object of
// such strings to such integers. That covers every line AppendRecord
// writes for a record whose strings need no escaping. On a canonical
// line r equals what encoding/json decodes from it; otherwise r is
// left partly written and the caller must not use it.
//
// The line is read where it lies and r keeps none of its bytes: a string
// that spells a name the package holds is that name (knownNames), any
// other is copied, so a line of registry names parses without
// allocating.
func parseCanonical(line []byte, r *Record) bool {
	if len(line) < 2 || line[0] != '{' {
		return false
	}
	*r = Record{}
	fs := r.fields()
	var seen uint64
	i, next := 1, 0
	for {
		key, j, ok := scanString(line, i)
		if !ok || j >= len(line) || line[j] != ':' {
			return false
		}
		i = j + 1
		// Lines mostly come in wire order: look for the key from where
		// the previous one was found.
		k, tried := next, 0
		for fs[k].key != string(key) {
			if tried++; tried == numFields {
				return false // not a Record key
			}
			if k++; k == numFields {
				k = 0
			}
		}
		if seen&(1<<k) != 0 {
			return false // duplicate key
		}
		seen |= 1 << k
		if next = k + 1; next == numFields {
			next = 0
		}
		switch p := fs[k].ptr.(type) {
		case *string:
			var b []byte
			b, i, ok = scanString(line, i)
			*p = stringOf(b)
		case *int:
			var n int64
			n, i, ok = parseInt(line, i)
			*p = int(n)
			ok = ok && int64(*p) == n
		case *int64:
			*p, i, ok = parseInt(line, i)
		case *uint64:
			*p, i, ok = parseUint(line, i)
		case *float64:
			*p, i, ok = parseFloat(line, i)
		case *map[string]int64:
			*p, i, ok = parseKindMap(line, i)
		}
		if !ok || i >= len(line) {
			return false
		}
		switch line[i] {
		case ',':
			i++
		case '}':
			return i+1 == len(line) // nothing may follow the object
		default:
			return false
		}
	}
}

// knownNames maps each name a record's strings usually spell to the
// string the package already holds for it: the registry's applications,
// the version table's versions, the scales, the protocols, the home
// policies and the traffic kinds.
var knownNames = func() map[string]string {
	m := map[string]string{}
	add := func(s string) { m[s] = s }
	for _, name := range AppNames() {
		add(name)
	}
	for _, row := range core.VersionTable() {
		add(string(row.Version))
	}
	for _, sc := range []core.Scale{core.PaperScale, core.MidScale, core.SmallScale} {
		add(string(sc))
	}
	for _, p := range proto.Names() {
		add(string(p))
	}
	for _, hp := range proto.PolicyNames() {
		add(string(hp))
	}
	for _, k := range stats.AllKinds() {
		add(k.String())
	}
	return m
}()

// stringOf returns b as a string that shares no memory with b: the
// known name it spells, or a copy. The lookup does not allocate.
func stringOf(b []byte) string {
	if s, ok := knownNames[string(b)]; ok {
		return s
	}
	return string(b)
}

// scanString reads the JSON string starting at b[i] and returns its
// content, a subslice of b, and the index after the closing quote. Only
// strings that are their own content qualify: ASCII, no control bytes,
// no escapes.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanNumber returns the end of the JSON number literal that starts at
// b[i] (i itself if there is none) and whether it is a plain integer:
// -?(0|[1-9][0-9]*) with an optional fraction and exponent, so no
// leading zeros, no bare '.', no '+'.
func scanNumber(b []byte, i int) (end int, integer bool) {
	digits := func(j int) int {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch d := digits(j); {
	case d == j, b[j] == '0' && d > j+1:
		return i, false
	default:
		j = d
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		d := digits(j + 1)
		if d == j+1 {
			return i, false
		}
		j, integer = d, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		d := digits(k)
		if d == k {
			return i, false
		}
		j, integer = d, false
	}
	return j, integer
}

// parseInt and parseFloat hand strconv the literal as a string that
// does not escape: up to 32 bytes — every number AppendRecord writes —
// it is converted on the stack.
func parseInt(b []byte, i int) (int64, int, bool) {
	end, integer := scanNumber(b, i)
	if !integer {
		return 0, i, false
	}
	n, err := strconv.ParseInt(string(b[i:end]), 10, 64)
	return n, end, err == nil // out of int64 range: json's error to report
}

func parseUint(b []byte, i int) (uint64, int, bool) {
	end, integer := scanNumber(b, i)
	if !integer || b[i] == '-' {
		return 0, i, false
	}
	n, err := strconv.ParseUint(string(b[i:end]), 10, 64)
	return n, end, err == nil
}

func parseFloat(b []byte, i int) (float64, int, bool) {
	end, _ := scanNumber(b, i)
	if end == i {
		return 0, i, false
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64) // as encoding/json converts it
	return f, end, err == nil
}

// parseKindMap reads the queue_kind_ns object. Like encoding/json it
// returns a non-nil map for an empty object.
func parseKindMap(b []byte, i int) (map[string]int64, int, bool) {
	if i >= len(b) || b[i] != '{' {
		return nil, i, false
	}
	i++
	m := map[string]int64{}
	if i < len(b) && b[i] == '}' {
		return m, i + 1, true
	}
	for {
		k, j, ok := scanString(b, i)
		if _, dup := m[string(k)]; !ok || dup || j >= len(b) || b[j] != ':' {
			return nil, i, false
		}
		n, j, ok := parseInt(b, j+1)
		if !ok || j >= len(b) {
			return nil, i, false
		}
		m[stringOf(k)] = n
		switch b[j] {
		case ',':
			i = j + 1
		case '}':
			return m, j + 1, true
		default:
			return nil, i, false
		}
	}
}
