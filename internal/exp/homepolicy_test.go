package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// TestSpecKeyHomePolicyRoundTrip: the homepolicy field round-trips
// through Key/ParseKey, and — critically for the cache and for
// pre-policy JSON-lines streams — an empty policy is omitted from the
// key, so old keys parse unchanged and old cached streams stay valid.
func TestSpecKeyHomePolicyRoundTrip(t *testing.T) {
	withPolicy := Spec{App: "MGS", Version: core.Tmk, Procs: 4, Scale: core.SmallScale,
		Protocol: proto.HomeLRC, HomePolicy: proto.AdaptivePolicy}
	got, err := ParseKey(withPolicy.Key())
	if err != nil || got != withPolicy {
		t.Fatalf("round trip: got (%+v, %v), want %+v", got, err, withPolicy)
	}
	if !strings.Contains(withPolicy.Key(), "|homepolicy=adaptive") {
		t.Fatalf("key %q does not carry the policy", withPolicy.Key())
	}

	noPolicy := withPolicy
	noPolicy.HomePolicy = ""
	if strings.Contains(noPolicy.Key(), "homepolicy") {
		t.Fatalf("empty policy leaked into key %q", noPolicy.Key())
	}
	legacy := "app=MGS|version=tmk|procs=4|scale=small|protocol=hlrc|contention=0|fifo=0"
	got, err = ParseKey(legacy)
	if err != nil || got != noPolicy {
		t.Fatalf("legacy key: got (%+v, %v), want %+v", got, err, noPolicy)
	}
}

func TestParseAxesHomePolicy(t *testing.T) {
	a, err := ParseAxes([]string{"app=MGS", "homepolicy=static,firsttouch,adaptive", "procs=2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.HomePolicies) != 3 || a.HomePolicies[2] != proto.AdaptivePolicy {
		t.Fatalf("HomePolicies = %v", a.HomePolicies)
	}
	specs := a.Specs(Spec{Version: core.Tmk, Scale: core.SmallScale, Protocol: proto.HomeLRC})
	if len(specs) != 3 {
		t.Fatalf("cross product size %d, want 3", len(specs))
	}
	if specs[1].HomePolicy != proto.FirstTouchPolicy {
		t.Fatalf("specs[1] policy = %q", specs[1].HomePolicy)
	}
	if _, err := ParseAxes([]string{"homepolicy=roundrobin"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestStreamJoinSpeedup: with the engine-side join on, every non-seq
// record carries a validated seq baseline join, seq records stay bare,
// and the stream remains byte-identical at any worker count.
func TestStreamJoinSpeedup(t *testing.T) {
	axes := Axes{Versions: []core.Version{core.Seq, core.Tmk}, Procs: []int{1, 2}}
	specs := axes.Specs(Spec{App: "Jacobi", Scale: core.SmallScale})
	for i := range specs {
		specs[i] = specs[i].Normalize()
	}
	streams := make([]string, 2)
	for i, workers := range []int{1, 4} {
		eng := New()
		eng.Workers = workers
		eng.JoinSpeedup = true
		var buf bytes.Buffer
		if _, err := eng.StreamWith(&buf, specs, nil); err != nil {
			t.Fatal(err)
		}
		streams[i] = buf.String()
	}
	if streams[0] != streams[1] {
		t.Fatalf("joined stream not byte-identical across worker counts:\n%s\nvs\n%s", streams[0], streams[1])
	}
	lines := strings.Split(strings.TrimSpace(streams[0]), "\n")
	if len(lines) != len(specs) {
		t.Fatalf("%d records for %d specs", len(lines), len(specs))
	}
	for i, line := range lines {
		rec, err := ValidateLine([]byte(line))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Version == core.Seq {
			if rec.Speedup != 0 || rec.SeqNanos != 0 {
				t.Errorf("seq record %d carries a join: %s", i, line)
			}
		} else if rec.Speedup == 0 || rec.SeqNanos == 0 {
			t.Errorf("record %d missing the seq join: %s", i, line)
		}
	}
}

// TestRecordValidateHomePolicyAndSpeedup exercises the new schema
// rules: migration activity demands a migrating policy and more than
// one node, and a baseline join must be internally consistent.
func TestRecordValidateHomePolicyAndSpeedup(t *testing.T) {
	base := func() Record {
		return Record{
			Spec: Spec{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale,
				Protocol: proto.HomeLRC, HomePolicy: proto.AdaptivePolicy},
			TimeNanos: 2e9, TimeSeconds: 2, Msgs: 10, Bytes: 100, Checksum: 1,
		}
	}
	ok := base()
	ok.Migrations = 3
	ok.SeqNanos = 4e9
	ok.SeqSeconds = 4
	ok.Speedup = 2
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}

	static := base()
	static.HomePolicy = proto.StaticPolicy
	static.Migrations = 1
	if err := static.Validate(); err == nil {
		t.Error("migrations under static homes accepted")
	}

	single := base()
	single.Procs = 1
	single.Migrations = 1
	if err := single.Validate(); err == nil {
		t.Error("single-node migrations accepted")
	}

	badJoin := base()
	badJoin.SeqNanos = 4e9
	badJoin.SeqSeconds = 4
	badJoin.Speedup = 3 // 4e9 / 2e9 = 2
	if err := badJoin.Validate(); err == nil {
		t.Error("inconsistent speedup accepted")
	}

	seqJoin := base()
	seqJoin.Version = core.Seq
	seqJoin.Procs = 1
	seqJoin.SeqNanos = 4e9
	seqJoin.SeqSeconds = 4
	seqJoin.Speedup = 2
	if err := seqJoin.Validate(); err == nil {
		t.Error("seq record with a baseline join accepted")
	}

	badPolicy := base()
	badPolicy.HomePolicy = "roundrobin"
	if err := badPolicy.Validate(); err == nil {
		t.Error("unknown home policy accepted")
	}
}
