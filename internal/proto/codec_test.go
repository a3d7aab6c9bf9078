package proto

import (
	"reflect"
	"testing"
)

// roundTrip asserts encode→decode equality and that the encoded length
// matches the modeled BatchBytes.
func roundTrip(t *testing.T, name string, bs []NoticeBatch) {
	t.Helper()
	enc := EncodeBatches(bs)
	if got, want := len(enc), BatchBytes(bs); got != want {
		t.Errorf("%s: encoded %d bytes, BatchBytes models %d", name, got, want)
	}
	dec, err := DecodeBatches(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if len(bs) == 0 {
		if len(dec) != 0 {
			t.Errorf("%s: decoded %v from empty input", name, dec)
		}
		return
	}
	if !reflect.DeepEqual(dec, bs) {
		t.Errorf("%s: round trip\n got %+v\nwant %+v", name, dec, bs)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		bs   []NoticeBatch
	}{
		{"empty", nil},
		{"single page", []NoticeBatch{
			{Proc: 2, Intervals: []IntervalRec{{Interval: 7, Pages: []int32{42}}}},
		}},
		{"one contiguous run", []NoticeBatch{
			{Proc: 0, Intervals: []IntervalRec{{Interval: 1, Pages: []int32{10, 11, 12, 13}}}},
		}},
		{"scattered pages", []NoticeBatch{
			{Proc: 1, Intervals: []IntervalRec{{Interval: 3, Pages: []int32{5, 3, 9, 10, 2}}}},
		}},
		{"descending touch order", []NoticeBatch{
			{Proc: 4, Intervals: []IntervalRec{{Interval: 12, Pages: []int32{6, 5, 4}}}},
		}},
		{"multiple procs and intervals", []NoticeBatch{
			{Proc: 0, Intervals: []IntervalRec{
				{Interval: 1, Pages: []int32{0, 1}},
				{Interval: 2, Pages: []int32{1}},
			}},
			{Proc: 3, Intervals: []IntervalRec{
				{Interval: 9, Pages: []int32{100, 101, 102, 200}},
			}},
		}},
	}
	for _, c := range cases {
		roundTrip(t, c.name, c.bs)
	}
}

// TestBatchCodecMatchesPageRuns cross-checks the codec's run splitting
// against pageRuns on generated page lists.
func TestBatchCodecMatchesPageRuns(t *testing.T) {
	lists := [][]int32{
		{0},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 2, 4, 6},
		{7, 6, 5},
		{1, 2, 3, 10, 11, 30},
	}
	for _, pages := range lists {
		bs := []NoticeBatch{{Proc: 1, Intervals: []IntervalRec{{Interval: 1, Pages: pages}}}}
		enc := EncodeBatches(bs)
		wantLen := intervalHdrBytes + pageRuns(pages)*runBytes
		if len(enc) != wantLen {
			t.Errorf("pages %v: %d bytes, want %d (%d runs)", pages, len(enc), wantLen, pageRuns(pages))
		}
		roundTrip(t, "generated", bs)
	}
}

func TestBatchCodecRejectsCorruptInput(t *testing.T) {
	good := EncodeBatches([]NoticeBatch{
		{Proc: 0, Intervals: []IntervalRec{{Interval: 1, Pages: []int32{3, 4}}}},
	})
	if _, err := DecodeBatches(good[:len(good)-3]); err == nil {
		t.Error("truncated runs accepted")
	}
	if _, err := DecodeBatches(good[:intervalHdrBytes-1]); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte(nil), good...)
	bad[12] = 0xff // reserved word
	if _, err := DecodeBatches(bad); err == nil {
		t.Error("corrupt reserved word accepted")
	}
}

// TestPageRunsEncoding pins the write-notice RLE used for wire
// accounting.
func TestPageRunsEncoding(t *testing.T) {
	cases := []struct {
		pages []int32
		want  int
	}{
		{nil, 0},
		{[]int32{5}, 1},
		{[]int32{5, 6, 7}, 1},
		{[]int32{5, 7, 9}, 3},
		{[]int32{1, 2, 3, 10, 11, 20}, 3},
	}
	for _, c := range cases {
		if got := pageRuns(c.pages); got != c.want {
			t.Errorf("pageRuns(%v) = %d, want %d", c.pages, got, c.want)
		}
	}
}
