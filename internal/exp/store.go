package exp

import (
	"fmt"
	"strings"

	"repro/internal/store"
)

// storeObserveSuffix distinguishes observed records in the persistent
// store. An observed run bakes bd_* breakdown fields into its record
// bytes, so it must never be served to an unobserved sweep (or vice
// versa): the two populations get disjoint store keys.
const storeObserveSuffix = "|obs=1"

// StoreKey is the persistent-store key for a spec: Spec.Key() plus the
// observe marker. The schema version is not part of the key — the
// store frames carry it and treat a mismatch as a miss.
func StoreKey(s Spec, observed bool) string {
	return keyOf(s).storeKey(observed)
}

// StoreOptions is the store configuration every CLI opens its `-store`
// directory with: this build's record schema version, so a store
// written by a build with a different record shape reads as empty
// rather than serving stale bytes. The parameter is ignored: it was the
// store's size cap, which is gone, and stays only because the benchmark
// module calls StoreOptions(0).
func StoreOptions(_ int64) store.Options {
	return store.Options{SchemaVersion: SchemaVersion}
}

// CheckStored decodes the value stored under key and checks what the
// engine guarantees before serving it: a strictly valid record carrying
// no wire stamp, run error or baseline join, whose spec derives key
// (less storeObserveSuffix). The engine recomputes an entry that fails
// rather than serve it; sweeplint -store reports it.
func CheckStored(key string, b []byte) (Record, error) {
	rec, err := ValidateLine(b)
	if err != nil {
		return Record{}, err
	}
	if rec.SchemaVersion != 0 {
		return Record{}, fmt.Errorf("exp: stored record carries wire stamp %d", rec.SchemaVersion)
	}
	if rec.Error != "" {
		return Record{}, fmt.Errorf("exp: stored record carries an error: %s", rec.Error)
	}
	if rec.SeqNanos != 0 || rec.SeqSeconds != 0 || rec.Speedup != 0 {
		return Record{}, fmt.Errorf("exp: stored record carries a speedup join")
	}
	var buf [128]byte
	if string(rec.appendKey(buf[:0])) != strings.TrimSuffix(key, storeObserveSuffix) {
		return Record{}, fmt.Errorf("exp: stored record is for %s, keyed %s", rec.Key(), key)
	}
	return rec, nil
}
