package sim_test

import (
	"bufio"
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

// tiedTraffic lists the golden runs whose traffic a tie decides by
// design, by record key, with where the tie is. Their checksums must
// still hold under every seed; their message counts and byte volumes
// may move.
var tiedTraffic = map[string]string{
	// The application processes one barrier departure releases at the
	// same virtual time fault in the order the tie breaks, so their
	// diff requests reach a shared writer in that order, and which
	// diffs each reply carries — so whether a later fault must ask that
	// writer again — follows: a handful of thousands of diff requests.
	"app=MGS|version=tmk|procs=4|scale=small|protocol=lrc|contention=0|fifo=0": "barrier release order of homeless faults",
	"app=MGS|version=tmk|procs=8|scale=small|protocol=lrc|contention=0|fifo=0": "barrier release order of homeless faults",
	"app=MGS|version=spf|procs=4|scale=small|protocol=lrc|contention=0|fifo=0": "barrier release order of homeless faults",
	// The lock-based reduction: processes whose page replies arrive at
	// the same virtual time ask for the reduction lock in the order the
	// tie breaks, and the write notices the grants and the next barrier
	// carry follow the grant order. Message counts hold; a few hundred
	// bytes of lock and barrier traffic move.
	"app=3-D FFT|version=tmk|procs=8|scale=small|protocol=hlrc|contention=0|fifo=0": "reduction lock grant order",
}

// TestSeededTieBreaks re-runs every record of the golden record file
// with pick breaking ties among processes of equal effective time at
// random instead of by lowest id, under 16 seeds. The order in which
// tied processes run may move virtual time, but no checksum may move
// with it, and no message count or byte volume either, outside the
// runs tiedTraffic names: a result that depends on a tie the simulator
// happens to break one way is a race the paper's runtimes could lose on
// a real cluster.
func TestSeededTieBreaks(t *testing.T) {
	f, err := os.Open("../harness/testdata/golden-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var golden []exp.Record
	var specs []exp.Spec
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		rec, err := exp.ValidateLine(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		golden = append(golden, rec)
		specs = append(specs, rec.Spec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	seeds := uint64(16)
	if testing.Short() {
		seeds = 2
	}
	start := time.Now()
	moved := map[string]bool{}
	for seed := uint64(1); seed <= seeds; seed++ {
		reset := sim.TieBreakSeed(seed)
		var out bytes.Buffer
		e := exp.New()
		e.Workers = 2
		_, err := e.StreamWith(&out, specs, nil)
		reset()
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		if len(lines) != len(golden) {
			t.Fatalf("seed %d: %d records for %d golden specs", seed, len(lines), len(golden))
		}
		for i, line := range lines {
			got, err := exp.ValidateLine(line)
			if err != nil {
				t.Fatal(err)
			}
			want := golden[i]
			traffic := got.Msgs != want.Msgs || got.Bytes != want.Bytes
			if _, tied := tiedTraffic[want.Key()]; tied && got.Checksum == want.Checksum {
				moved[want.Key()] = moved[want.Key()] || traffic
				continue
			}
			if got.Checksum != want.Checksum || traffic {
				t.Errorf("seed %d: %s: checksum %v msgs %d bytes %d, golden %v %d %d",
					seed, want.Key(), got.Checksum, got.Msgs, got.Bytes, want.Checksum, want.Msgs, want.Bytes)
			}
		}
	}
	t.Logf("%d records × %d seeds in %v", len(golden), seeds, time.Since(start).Round(time.Millisecond))
	if !testing.Short() {
		for key, where := range tiedTraffic {
			if !moved[key] {
				t.Errorf("%s: listed as decided by a tie (%s), but its traffic held under every seed", key, where)
			}
		}
	}
}
