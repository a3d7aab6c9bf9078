package exp

import (
	"fmt"

	"repro/internal/store"
)

// StoreObserveSuffix distinguishes observed records in the persistent
// store. An observed run bakes bd_* breakdown fields into its record
// bytes, so it must never be served to an unobserved sweep (or vice
// versa): the two populations get disjoint store keys.
const StoreObserveSuffix = "|obs=1"

// StoreKey is the persistent-store key for a spec: Spec.Key() plus the
// observe marker. The schema version is not part of the key — the
// store frames carry it and treat a mismatch as a miss.
func StoreKey(s Spec, observed bool) string {
	return keyOf(s).storeKey(observed)
}

// StoreOptions is the store configuration every CLI opens its `-store`
// directory with: this build's record schema version, so a store
// written by a build with a different record shape reads as empty
// rather than serving stale bytes.
func StoreOptions(maxBytes int64) store.Options {
	return store.Options{MaxBytes: maxBytes, SchemaVersion: SchemaVersion}
}

// decodeStored turns stored bytes back into a servable record for s.
// It re-validates everything a fresh RecordOf guarantees — schema,
// invariants, spec identity, no error, no wire stamp, no host time —
// so a tampered or drifted entry is recomputed rather than served.
func decodeStored(b []byte, s Spec) (Record, error) {
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
	if rec.HostNanos != 0 {
		return Record{}, fmt.Errorf("exp: stored record carries host time")
	}
	if rec.SeqNanos != 0 || rec.SeqSeconds != 0 || rec.Speedup != 0 {
		return Record{}, fmt.Errorf("exp: stored record carries a speedup join")
	}
	if rec.Spec != s {
		return Record{}, fmt.Errorf("exp: stored record is for %s, wanted %s", rec.Key(), s.Key())
	}
	return rec, nil
}
