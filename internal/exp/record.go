package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/stats"
)

// SchemaVersion identifies this build's Record wire schema. Records
// that cross a process boundary (the internal/fabric coordinator/worker
// protocol) are stamped with it, and Validate rejects any other value:
// a worker built before a schema change must not silently merge its
// records into a newer coordinator's stream, or vice versa. Bump it
// whenever a Record field is added, removed, or changes meaning.
const SchemaVersion = 5

// Record is one JSON-lines measurement: the spec that identifies the
// run plus the timed-region observables. Field order is the wire
// order. A record's bytes are defined in AppendRecord (codec.go) as
// what encoding/json renders for the struct — fields in order, the
// queue_kind_ns map keys sorted — so they depend only on its values:
// the foundation of the sweep engine's byte-identical output
// guarantee. A new field needs a line in the codec's field table;
// TestFieldTableMatchesStruct fails until it has one.
type Record struct {
	Spec

	// SchemaVersion stamps records exchanged between fabric coordinator
	// and workers; when set it must equal this build's SchemaVersion.
	// Local sweep output leaves it zero (omitted), and the coordinator
	// strips it before merging, so distributed output stays
	// byte-identical to a single-process sweep.
	SchemaVersion int `json:"schema_version,omitempty"`

	// TimeNanos is the timed-region elapsed virtual time, exact.
	TimeNanos int64 `json:"time_ns"`
	// TimeSeconds is the same duration in float seconds, for plotting.
	TimeSeconds float64 `json:"time_seconds"`
	// Msgs and Bytes are the Table 2/3 traffic totals.
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
	// DiffBytes is the part of Bytes that carried diffs
	// (stats.KindDiff): the traffic home placement moves. Zero (omitted)
	// for the versions that share no pages.
	DiffBytes int64 `json:"diff_bytes,omitempty"`
	// Checksum is the run's numerical result.
	Checksum float64 `json:"checksum"`
	// Digest is FNV-1a over the bit patterns of the run's output array
	// in global index order (core.Result.Digest): it moves where values
	// trade places, which the checksum does not. Zero (omitted) for the
	// applications that compute none.
	Digest uint64 `json:"digest,omitempty"`
	// WSum is the run's position-weighted sum of its output
	// (core.Result.WSum), held to seq's within the application's
	// tolerance. Zero (omitted) for the applications that compute none.
	WSum float64 `json:"wsum,omitempty"`

	// Contention queueing delay, total and split by the binding
	// resource; zero (omitted) when the contention model is off.
	QueueNanos          int64 `json:"queue_ns,omitempty"`
	QueuedMsgs          int64 `json:"queued_msgs,omitempty"`
	QueueOutNanos       int64 `json:"queue_out_ns,omitempty"`
	QueueInNanos        int64 `json:"queue_in_ns,omitempty"`
	QueueBackplaneNanos int64 `json:"queue_backplane_ns,omitempty"`
	// QueueKindNanos splits the queueing delay by traffic category
	// (barrier storms vs page fetches vs data shifts).
	QueueKindNanos map[string]int64 `json:"queue_kind_ns,omitempty"`

	// Per-node time attribution summed over nodes (engine option
	// Observe): the timed windows' total virtual time decomposed into
	// compute, page-fault stall, barrier wait, lock wait, explicit
	// message wait, contention queueing and untracked waits. The
	// components sum exactly to bd_total_ns. All absent when
	// observability is off.
	BDTotalNanos   int64 `json:"bd_total_ns,omitempty"`
	BDComputeNanos int64 `json:"bd_compute_ns,omitempty"`
	BDFaultNanos   int64 `json:"bd_fault_ns,omitempty"`
	BDBarrierNanos int64 `json:"bd_barrier_ns,omitempty"`
	BDLockNanos    int64 `json:"bd_lock_ns,omitempty"`
	BDDataNanos    int64 `json:"bd_data_ns,omitempty"`
	BDQueueNanos   int64 `json:"bd_queue_ns,omitempty"`
	BDOtherNanos   int64 `json:"bd_other_ns,omitempty"`

	// Home-policy activity, whole-run sums over nodes (home-based
	// protocol under a migrating policy only; zero and omitted under
	// static homes and the homeless protocol).
	Migrations           int64 `json:"migrations,omitempty"`
	RedirectedFlushBytes int64 `json:"redirected_flush_bytes,omitempty"`
	StaleForwards        int64 `json:"stale_forwards,omitempty"`

	// Sequential-baseline join (engine option JoinSpeedup, or the
	// dsmrun single-run path): the seq baseline's timed-region duration
	// and this run's speedup over it. Absent on seq records and when
	// the join is off.
	SeqNanos   int64   `json:"seq_ns,omitempty"`
	SeqSeconds float64 `json:"seq_seconds,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`

	// Error carries a run failure; all measurement fields are zero.
	Error string `json:"error,omitempty"`
}

// RecordOf renders a completed run as a record labelled s — the spec
// that was asked for, which need not be the one that ran
// (Spec.Canonical). On error the record carries only the spec and the
// error string.
func RecordOf(s Spec, res core.Result, err error) Record {
	rec := Record{Spec: s}
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.TimeNanos = int64(res.Time)
	rec.TimeSeconds = res.Time.Seconds()
	rec.Msgs = res.Stats.TotalMsgs()
	rec.Bytes = res.Stats.TotalBytes()
	rec.DiffBytes = res.Stats.BytesOf(stats.KindDiff)
	rec.Checksum = res.Checksum
	rec.Digest = res.Digest
	rec.WSum = res.WSum
	rec.QueueNanos = res.Stats.TotalQueueNanos()
	rec.QueuedMsgs = res.Stats.TotalQueuedMsgs()
	rec.QueueOutNanos = res.Stats.QueueResNanosOf(stats.QueueOut)
	rec.QueueInNanos = res.Stats.QueueResNanosOf(stats.QueueIn)
	rec.QueueBackplaneNanos = res.Stats.QueueResNanosOf(stats.QueueBackplane)
	for _, k := range stats.AllKinds() {
		if n := res.Stats.QueueKindNanosOf(k); n != 0 {
			if rec.QueueKindNanos == nil {
				rec.QueueKindNanos = map[string]int64{}
			}
			rec.QueueKindNanos[k.String()] = n
		}
	}
	if res.Breakdown != nil {
		bd := obs.Sum(res.Breakdown)
		rec.BDTotalNanos = bd.Total
		rec.BDComputeNanos = bd.Compute
		rec.BDFaultNanos = bd.Fault
		rec.BDBarrierNanos = bd.Barrier
		rec.BDLockNanos = bd.Lock
		rec.BDDataNanos = bd.Data
		rec.BDQueueNanos = bd.Queue
		rec.BDOtherNanos = bd.Other
	}
	rec.Migrations = res.Migrations
	rec.RedirectedFlushBytes = res.RedirectedFlushBytes
	rec.StaleForwards = res.StaleForwards
	return rec
}

// JoinSeq adds the sequential-baseline join to a record: the baseline's
// duration and the run's speedup over it. No-op on seq and error
// records.
func (r *Record) JoinSeq(seq core.Result) {
	r.joinSeqNanos(int64(seq.Time))
}

// joinSeqNanos is JoinSeq from the baseline's raw duration, as carried
// by a baseline record's time_ns field. It reconstructs seq_seconds
// through time.Duration.Seconds so a join computed from a stored
// baseline is byte-identical to one computed from a live run.
func (r *Record) joinSeqNanos(seqNS int64) {
	if r.Error != "" || r.Version == core.Seq || r.TimeNanos == 0 {
		return
	}
	r.SeqNanos = seqNS
	r.SeqSeconds = time.Duration(seqNS).Seconds()
	r.Speedup = float64(seqNS) / float64(r.TimeNanos)
}

// Agree is the one rule by which two runs' results stand together: nil
// when got's checksum agrees with want's and, where both records carry
// a digest, the digests are equal, and where both carry a wsum, it
// agrees as the checksum does. A non-finite checksum never agrees,
// so a record agrees with itself exactly when it is a number. Runs of
// one application, scale, version and processor count differ only in
// what must not move the answer (protocol, home policy, contention) and
// must be bitwise equal; any other pair must agree within the
// application's declared relative tolerance.
func Agree(got, want Record) error {
	for _, r := range [2]*Record{&got, &want} {
		if math.IsNaN(r.Checksum) || math.IsInf(r.Checksum, 0) {
			return fmt.Errorf("%s/%s: non-finite checksum", r.App, r.Version)
		}
	}
	tol := tolerance[got.App]
	if got.App != want.App || got.Scale != want.Scale || got.Version == want.Version && got.Procs == want.Procs {
		tol = 0
	}
	if d := math.Abs(got.Checksum - want.Checksum); d > tol*math.Abs(want.Checksum) {
		return fmt.Errorf("%s: checksum %v disagrees with %v of %s (relative tolerance %g)",
			got.Key(), got.Checksum, want.Checksum, want.Key(), tol)
	}
	if got.Digest != 0 && want.Digest != 0 && got.Digest != want.Digest {
		return fmt.Errorf("%s: digest %d disagrees with %d of %s", got.Key(), got.Digest, want.Digest, want.Key())
	}
	if got.WSum != 0 && want.WSum != 0 && math.Abs(got.WSum-want.WSum) > tol*math.Abs(want.WSum) {
		return fmt.Errorf("%s: wsum %v disagrees with %v of %s (relative tolerance %g)",
			got.Key(), got.WSum, want.WSum, want.Key(), tol)
	}
	return nil
}

// Labelled is the record a request for s gets from its run's record:
// the run's measurements under s's spec fields, joined with base (the
// baseline's record) when base is non-nil and neither record failed. It
// is the way out of a run for the fabric coordinator's merge, and the
// engine's emitter does the same in place; both are byte-identical to
// RecordOf(s, …) of the run's result.
func Labelled(s Spec, run Record, base *Record) Record {
	run.Spec = s
	if base != nil {
		run.join(base)
	}
	return run
}

// join joins r with its sequential baseline's record: a checksum the
// baseline's does not Agree with makes r that disagreement's error
// record; any other takes the baseline's duration and the speedup over
// it. No-op when either record failed.
func (r *Record) join(base *Record) {
	if r.Error != "" || base.Error != "" {
		return
	}
	if err := Agree(*r, *base); err != nil {
		*r = Record{Spec: r.Spec, Error: err.Error()}
		return
	}
	r.joinSeqNanos(base.TimeNanos)
}

// SeqSpecOf returns the sequential-baseline spec a record of s joins
// with: the application's sequential version at s's scale, in canonical
// form, so one baseline serves every processor count, protocol, home
// policy and machine knob of a sweep.
func SeqSpecOf(s Spec) Spec {
	s.Version = core.Seq
	return s.Canonical()
}

// Validate checks a record against the JSON-lines schema: a coherent
// spec, non-negative measurements, internally consistent queue splits.
// Error records validate when they carry a spec and an error string.
func (r Record) Validate() error {
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if r.SchemaVersion != 0 && r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("exp: record schema_version %d does not match this build's %d in record %s",
			r.SchemaVersion, SchemaVersion, r.Key())
	}
	if r.Error != "" {
		return nil
	}
	if r.TimeNanos < 0 || r.Msgs < 0 || r.Bytes < 0 || r.DiffBytes < 0 {
		return fmt.Errorf("exp: negative measurement in record %s", r.Key())
	}
	if r.DiffBytes > r.Bytes {
		return fmt.Errorf("exp: diff_bytes %d exceed bytes %d in record %s", r.DiffBytes, r.Bytes, r.Key())
	}
	if math.Abs(r.TimeSeconds-float64(r.TimeNanos)/1e9) > 1e-6 {
		return fmt.Errorf("exp: time_seconds %g disagrees with time_ns %d", r.TimeSeconds, r.TimeNanos)
	}
	if math.IsNaN(r.Checksum) || math.IsInf(r.Checksum, 0) {
		return fmt.Errorf("exp: non-finite checksum in record %s", r.Key())
	}
	if r.QueueNanos < 0 || r.QueuedMsgs < 0 {
		return fmt.Errorf("exp: negative queue totals in record %s", r.Key())
	}
	if sum := r.QueueOutNanos + r.QueueInNanos + r.QueueBackplaneNanos; sum != r.QueueNanos {
		return fmt.Errorf("exp: queue resource split %d != total %d in record %s", sum, r.QueueNanos, r.Key())
	}
	var kindSum int64
	var unknown []string
	for k, n := range r.QueueKindNanos {
		if !kindNames[k] {
			unknown = append(unknown, k)
		}
		kindSum += n
	}
	if len(unknown) != 0 {
		// The least one, so the message does not depend on map order.
		return fmt.Errorf("exp: unknown traffic kind %q in record %s", slices.Min(unknown), r.Key())
	}
	if kindSum != r.QueueNanos {
		return fmt.Errorf("exp: queue kind split %d != total %d in record %s", kindSum, r.QueueNanos, r.Key())
	}
	if r.Contention == 0 && r.QueueNanos != 0 {
		return fmt.Errorf("exp: queueing delay without contention in record %s", r.Key())
	}
	if r.BDTotalNanos < 0 || r.BDComputeNanos < 0 || r.BDFaultNanos < 0 || r.BDBarrierNanos < 0 ||
		r.BDLockNanos < 0 || r.BDDataNanos < 0 || r.BDQueueNanos < 0 || r.BDOtherNanos < 0 {
		return fmt.Errorf("exp: negative time-attribution component in record %s", r.Key())
	}
	bdSum := r.BDComputeNanos + r.BDFaultNanos + r.BDBarrierNanos +
		r.BDLockNanos + r.BDDataNanos + r.BDQueueNanos + r.BDOtherNanos
	if bdSum != r.BDTotalNanos {
		return fmt.Errorf("exp: time-attribution components %d != total %d in record %s", bdSum, r.BDTotalNanos, r.Key())
	}
	if r.Contention == 0 && r.BDQueueNanos != 0 {
		return fmt.Errorf("exp: queueing attribution without contention in record %s", r.Key())
	}
	if r.Migrations < 0 || r.RedirectedFlushBytes < 0 || r.StaleForwards < 0 {
		return fmt.Errorf("exp: negative home-policy activity in record %s", r.Key())
	}
	switch r.HomePolicy {
	case "", proto.StaticPolicy:
		if r.Migrations != 0 || r.RedirectedFlushBytes != 0 || r.StaleForwards != 0 {
			return fmt.Errorf("exp: home-policy activity under static homes in record %s", r.Key())
		}
	}
	if r.Procs == 1 && r.Migrations != 0 {
		return fmt.Errorf("exp: single-node run migrated pages in record %s", r.Key())
	}
	if r.SeqNanos != 0 || r.SeqSeconds != 0 || r.Speedup != 0 {
		if r.Version == core.Seq {
			return fmt.Errorf("exp: seq record carries a baseline join in record %s", r.Key())
		}
		if r.SeqNanos <= 0 || r.TimeNanos <= 0 {
			return fmt.Errorf("exp: incoherent baseline join in record %s", r.Key())
		}
		if math.Abs(r.SeqSeconds-float64(r.SeqNanos)/1e9) > 1e-6 {
			return fmt.Errorf("exp: seq_seconds %g disagrees with seq_ns %d", r.SeqSeconds, r.SeqNanos)
		}
		want := float64(r.SeqNanos) / float64(r.TimeNanos)
		if math.Abs(r.Speedup-want) > 1e-9*want {
			return fmt.Errorf("exp: speedup %g disagrees with seq_ns/time_ns %g in record %s", r.Speedup, want, r.Key())
		}
	}
	return checkAppName(r.App)
}

// kindNames is the set of traffic-category names a queue_kind_ns key
// may be.
var kindNames = func() map[string]bool {
	m := map[string]bool{}
	for _, k := range stats.AllKinds() {
		m[k.String()] = true
	}
	return m
}()

// ValidateLine parses one JSON-lines record strictly (unknown fields
// rejected) and validates it. It is the schema check the CI sweep
// smoke job and cmd/sweeplint apply to engine output, and the decode
// of every stored and every merged record. A line in canonical form —
// what AppendRecord writes, see parseCanonical — is parsed in place;
// any other line is decodeReference's. The line's own bytes choose,
// and both ways end in the same Validate.
func ValidateLine(line []byte) (Record, error) {
	var rec Record
	if !parseCanonical(line, &rec) {
		var err error
		if rec, err = decodeReference(line); err != nil {
			return Record{}, err
		}
	}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// decodeReference is encoding/json's reading of a record line: the
// definition of what decodes, and to what. It decodes into its own
// Record — Decode takes the address as an interface, which moves it to
// the heap — so that ValidateLine's stays on the stack.
func decodeReference(line []byte) (Record, error) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Record{}, fmt.Errorf("exp: malformed record: %v", err)
	}
	return rec, nil
}
