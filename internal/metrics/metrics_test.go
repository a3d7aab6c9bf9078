package metrics

import (
	"bytes"
	"encoding/json"
	"expvar"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentHammer observes from many goroutines while others read
// (the -race CI job runs this under the race detector): every read
// agrees with itself, and the final count and sum are exact.
func TestConcurrentHammer(t *testing.T) {
	h := NewHistogram(0.001, 10, 4)
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var n uint64
			for _, c := range s.Counts {
				n += c
			}
			if n != s.Count {
				t.Errorf("concurrent read: count %d, buckets sum to %d", s.Count, n)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				// Quarter multiples sum exactly in any order.
				h.Observe(float64(rng.Intn(40)) / 4)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	var want float64
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < per; i++ {
			want += float64(rng.Intn(40)) / 4
		}
	}
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Sum != want {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
	if len(s.Counts) != len(s.Bounds)+1 {
		t.Errorf("%d counts for %d bounds, want one overflow bucket more", len(s.Counts), len(s.Bounds))
	}
}

// TestBucketSearch pins the bucket rule: a sample equal to an upper
// bound lands in that bucket, one above every bound in the overflow.
func TestBucketSearch(t *testing.T) {
	h := NewHistogram(1, 2, 2) // bounds 1, 2
	h.Observe(1)
	h.Observe(1.5)
	h.Observe(math.Inf(1) - 1e308) // finite huge -> overflow
	s := h.Snapshot()
	if want := []float64{1, 2}; !slices.Equal(s.Bounds, want) {
		t.Fatalf("bounds %v, want %v", s.Bounds, want)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 || s.Count != 3 {
		t.Errorf("bucket placement wrong: %+v", s)
	}
}

// TestSnapshotDeterminism pins the ordering guarantee: two maps
// populated with the same values in different orders serve identical
// bytes, and repeated reads of one map are stable.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(perm []int) *expvar.Map {
		m := new(expvar.Map)
		jacobi, mgs := NewHistogram(0.1, 10, 2), NewHistogram(0.1, 10, 2)
		ops := []func(){
			func() { m.Set("b", expvar.Func(func() any { return struct{ N int }{7} })) },
			func() { m.Set("c_jacobi", jacobi) },
			func() { m.Set("c_mgs", mgs) },
			func() { jacobi.Observe(0.05) },
			func() { mgs.Observe(3) },
			func() { m.Set("a", expvar.Func(func() any { return []int{1, 2} })) },
		}
		for _, i := range perm {
			ops[i]()
		}
		return m
	}
	golden := build([]int{0, 1, 2, 3, 4, 5}).String()
	for _, perm := range [][]int{{5, 2, 1, 4, 3, 0}, {1, 3, 5, 0, 2, 4}} {
		if got := build(perm).String(); got != golden {
			t.Errorf("insertion order changed the bytes:\nwant: %s\ngot:  %s", golden, got)
		}
	}
	m := build([]int{0, 1, 2, 3, 4, 5})
	if m.String() != m.String() {
		t.Error("repeated reads of one map differ")
	}
}

// TestExpositionGolden pins the exact bytes of a small map: the
// document /metrics serves and -metrics-dump writes.
func TestExpositionGolden(t *testing.T) {
	m := new(expvar.Map)
	h := NewHistogram(0.5, 4, 2)
	h.Observe(0.4)
	h.Observe(8)
	m.Set("host_seconds", h)
	m.Set("engine", expvar.Func(func() any {
		return struct {
			Runs int64 `json:"runs"`
		}{3}
	}))
	want := `{"engine": {"runs":3}, "host_seconds": {"bounds":[0.5,2],"counts":[1,0,1],"count":2,"sum":8.4}}` + "\n"
	var buf bytes.Buffer
	if err := WriteJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("document bytes:\nwant: %s\ngot:  %s", want, buf.String())
	}
}

// TestRegistrationPanics pins the constructor's rules: a bucket layout
// that is empty or does not ascend is a programming error.
func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("no buckets", func() { NewHistogram(1, 2, 0) })
	expectPanic("zero start", func() { NewHistogram(0, 2, 3) })
	expectPanic("flat factor", func() { NewHistogram(1, 1, 3) })
	expectPanic("infinite start", func() { NewHistogram(math.Inf(1), 2, 3) })
}

// TestSnapshotJSONRoundTrip: a histogram's String decodes back into
// its snapshot.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	h := NewHistogram(0.5, 2, 3)
	h.Observe(99)
	h.Observe(0.25)
	var back HistogramSnapshot
	if err := json.Unmarshal([]byte(h.String()), &back); err != nil {
		t.Fatalf("histogram JSON does not decode: %v", err)
	}
	want := h.Snapshot()
	if !slices.Equal(back.Bounds, want.Bounds) || back.Count != 2 || back.Sum != 99.25 ||
		back.Counts[0] != 1 || back.Counts[len(back.Counts)-1] != 1 {
		t.Errorf("round trip gave %+v, want %+v", back, want)
	}
}

// TestHTTPHandler serves a map over HTTP and reads it back.
func TestHTTPHandler(t *testing.T) {
	m := new(expvar.Map)
	h := NewHistogram(1, 2, 1)
	h.Observe(1)
	m.Set("served", h)
	srv := httptest.NewServer(NewMux(m, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Served HistogramSnapshot }
	if err := json.Unmarshal(body, &doc); err != nil || doc.Served.Count != 1 {
		t.Errorf("scrape %s decodes to %+v, %v", body, doc, err)
	}
	// pprof index must be mounted too.
	pp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Errorf("pprof index status %d", pp.StatusCode)
	}
}
