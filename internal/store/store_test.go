package store

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key, want string) {
	t.Helper()
	got, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get(%s): miss, want %q", key, want)
	}
	if string(got) != want {
		t.Fatalf("Get(%s) = %q, want %q", key, got, want)
	}
}

// encodeFrame renders one frame on its own: what Put appends for
// (schema, key, value).
func encodeFrame(schema uint32, key string, value []byte) []byte {
	return appendFrame(nil, schema, key, value)
}

// segPath is the store's one segment file.
func segPath(dir string) string { return filepath.Join(dir, segName) }

// storeKeys lists the live keys in sorted order, through Verify's
// callback.
func storeKeys(t *testing.T, s *Store) []string {
	t.Helper()
	var keys []string
	if _, err := s.Verify(func(key string, _ []byte) error {
		keys = append(keys, key)
		return nil
	}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return keys
}

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "a", "alpha")
	mustPut(t, s, "b", "beta")
	mustGet(t, s, "a", "alpha")
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen: everything persisted, iteration order sorted.
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	mustGet(t, s2, "a", "alpha")
	mustGet(t, s2, "b", "beta")
	st := s2.Stats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 hits 0 misses", st)
	}
	if keys := storeKeys(t, s2); len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v, want [a b]", keys)
	}
}

// TestStoreWarmGetAllocatesTheValueOnly: a hit costs one allocation,
// the caller's copy of the value. The frame is read into the store's
// read buffer and its key compared where it lies, not copied into a
// string.
func TestStoreWarmGetAllocatesTheValueOnly(t *testing.T) {
	s := openT(t, t.TempDir(), Options{SchemaVersion: 1})
	key := "app=Jacobi|version=tmk|procs=4|scale=small|protocol=lrc|contention=0|fifo=0|obs=1"
	mustPut(t, s, key, strings.Repeat("v", 300))
	mustGet(t, s, key, strings.Repeat("v", 300))
	n := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get(key); !ok {
			t.Fatal("warm Get missed")
		}
	})
	if n != 1 {
		t.Errorf("a warm Get allocates %v times, want 1 (the value's copy)", n)
	}
}

// TestStoreWarmAppendGetAllocatesNothing: a warm AppendGet into a dst
// with room for the value allocates nothing: the pread, the CRC check
// and the key compare work in the store's read buffer, and the value is
// copied into dst.
func TestStoreWarmAppendGetAllocatesNothing(t *testing.T) {
	s := openT(t, t.TempDir(), Options{SchemaVersion: 1})
	key := "app=Jacobi|version=tmk|procs=4|scale=small|protocol=lrc|contention=0|fifo=0|obs=1"
	val := strings.Repeat("v", 300)
	mustPut(t, s, key, val)
	dst := make([]byte, 0, 512)
	n := testing.AllocsPerRun(100, func() {
		got, ok := s.AppendGet(dst[:0], key)
		if !ok || string(got) != val {
			t.Fatalf("warm AppendGet = %q, %v", got, ok)
		}
	})
	if n != 0 {
		t.Errorf("a warm AppendGet into a sized dst allocates %v times, want 0", n)
	}
}

// TestStorePutAllocatesNoFrame: a Put of a new key builds its frame in
// the store's write buffer, so it allocates only what outlives it — the
// index entry — and the FileInfo of the fstat every writer makes before
// appending. Neither is the size of the value.
func TestStorePutAllocatesNoFrame(t *testing.T) {
	s := openT(t, t.TempDir(), Options{SchemaVersion: 1})
	val := []byte(strings.Repeat("r", 64<<10))
	const runs = 100
	keys := make([]string, runs+2) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	if err := s.Put(keys[0], val); err != nil { // sizes the write buffer
		t.Fatal(err)
	}
	next := 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := testing.AllocsPerRun(runs, func() {
		if err := s.Put(keys[next], val); err != nil {
			t.Fatal(err)
		}
		next++
	})
	runtime.ReadMemStats(&after)
	if n > 2 {
		t.Errorf("a Put of a new key allocates %v objects, want at most 2 (entry, segment FileInfo)", n)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); per > uint64(len(val))/8 {
		t.Errorf("a Put of a %d-byte value allocates %d bytes: a frame per Put", len(val), per)
	}
	if got := s.Len(); got != len(keys) {
		t.Fatalf("store holds %d keys, want %d", got, len(keys))
	}
	mustGet(t, s, keys[runs+1], string(val))
}

// TestStoreAppendGetLeavesDstOnMissAndCorruption: a miss and a frame
// that fails its check return dst as it was passed — same bytes, same
// length, same array — and a hit appends after what dst holds.
func TestStoreAppendGetLeavesDstOnMissAndCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "k", strings.Repeat("x", 100))
	dst := append(make([]byte, 0, 256), "prefix"...)
	unchanged := func(what string, got []byte, ok bool) {
		t.Helper()
		if ok {
			t.Fatalf("%s: AppendGet hit", what)
		}
		if string(got) != "prefix" || cap(got) != cap(dst) || &got[0] != &dst[0] {
			t.Fatalf("%s: AppendGet returned %q (cap %d), want dst %q (cap %d) unchanged", what, got, cap(got), dst, cap(dst))
		}
	}
	got, ok := s.AppendGet(dst, "missing")
	unchanged("miss", got, ok)
	corruptFrame(t, dir) // under the live handle: the re-read fails its CRC
	got, ok = s.AppendGet(dst, "k")
	unchanged("corrupted frame", got, ok)
	if st := s.Stats(); st.CorruptFrames != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 corrupt frame and 2 misses", st)
	}
	mustPut(t, s, "k", "fresh")
	if got, ok = s.AppendGet(dst, "k"); !ok || string(got) != "prefixfresh" {
		t.Fatalf("AppendGet after the heal = %q, %v, want %q", got, ok, "prefixfresh")
	}
}

// TestStoreHas: Has answers from the index — a key this handle wrote, a
// key another handle committed after this one opened (one refresh on
// the miss), no key, and nothing once closed — without reading a value:
// a frame corrupted on disk still counts as indexed until a read checks
// it, and no call moves a counter.
func TestStoreHas(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "k", strings.Repeat("x", 100))
	other := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, other, "late", "committed after s opened")
	for _, c := range []struct {
		key  string
		want bool
	}{{"k", true}, {"late", true}, {"missing", false}} {
		if got := s.Has(c.key); got != c.want {
			t.Errorf("Has(%q) = %v, want %v", c.key, got, c.want)
		}
	}
	corruptFrame(t, dir)
	if !s.Has("k") {
		t.Error("Has read the corrupted frame: the key left the index")
	}
	if st := s.Stats(); st != (Stats{Puts: 1}) {
		t.Errorf("stats = %+v, want only the Put: Has counts nothing", st)
	}
	if n := testing.AllocsPerRun(100, func() { s.Has("k") }); n != 0 {
		t.Errorf("Has of an indexed key allocates %v times, want 0", n)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get served the corrupted frame")
	}
	if s.Has("k") {
		t.Error("Has still lists the frame Get dropped")
	}
	s.Close()
	if s.Has("late") {
		t.Error("Has answered on a closed store")
	}
}

// TestStoreGetsDoNotAlias: every Get returns bytes of its own, never a
// view of the store's read buffer — a later Get of another key, or a
// caller scribbling over an earlier value, changes no other value.
func TestStoreGetsDoNotAlias(t *testing.T) {
	s := openT(t, t.TempDir(), Options{SchemaVersion: 1})
	va, vb := strings.Repeat("a", 200), strings.Repeat("b", 200)
	mustPut(t, s, "key-a", va)
	mustPut(t, s, "key-b", vb)
	a, okA := s.Get("key-a")
	b, okB := s.Get("key-b")
	if !okA || !okB {
		t.Fatal("Get missed")
	}
	if string(a) != va || string(b) != vb {
		t.Fatalf("Get(key-a) = %.8q…, Get(key-b) = %.8q…: the values alias", a, b)
	}
	for i := range b {
		b[i] = '#'
	}
	if string(a) != va {
		t.Fatal("scribbling over one Get's value changed another's")
	}
	mustGet(t, s, "key-b", vb)
}

// TestStoreCompactionServesEveryValue: compaction copies the frames it
// reads through the read buffer while Puts build theirs in the write
// buffer. After many reads, writes and compactions of values of many
// sizes, every value is served byte for byte, by this handle and after
// a reopen.
func TestStoreCompactionServesEveryValue(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	const keys = 40
	key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
	want := map[string]string{}
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			// A superseded key dirties the segment, so the next Put
			// compacts.
			if round == 0 || i%3 == round {
				want[key(i)] = fmt.Sprintf("%d/%d:", i, round) + strings.Repeat(string(rune('a'+i%26)), (i*37+round*11)%300)
				mustPut(t, s, key(i), want[key(i)])
			}
			j := (i * 7) % keys
			if v, ok := want[key(j)]; ok {
				mustGet(t, s, key(j), v)
			}
		}
	}
	if st := s.Stats(); st.Compactions < 10 {
		t.Fatalf("stats = %+v, want at least 10 compactions", st)
	}
	for k, v := range want {
		mustGet(t, s, k, v)
	}
	s.Close()
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	for k, v := range want {
		mustGet(t, s2, k, v)
	}
	rep, err := s2.Verify(nil)
	if err != nil || rep.Entries != keys || rep.CorruptFrames != 0 {
		t.Fatalf("Verify = %+v, %v, want %d entries and 0 corrupt frames", rep, err, keys)
	}
}

func TestStorePutDedupAndOverwrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "k", "v1")
	size1 := s.SizeBytes()
	mustPut(t, s, "k", "v1") // identical: no growth
	if got := s.SizeBytes(); got != size1 {
		t.Fatalf("identical re-Put grew segment %d -> %d", size1, got)
	}
	mustPut(t, s, "k", "v2") // different: newest wins
	mustGet(t, s, "k", "v2")
	s.Close()
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	mustGet(t, s2, "k", "v2")
	if n := s2.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestStoreSchemaMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "k", "v1")
	s.Close()
	// A build with a different schema version must never serve the old
	// frame, and its own writes land under the new version.
	s2 := openT(t, dir, Options{SchemaVersion: 2})
	if _, ok := s2.Get("k"); ok {
		t.Fatal("schema-mismatched frame was served")
	}
	if st := s2.Stats(); st.SchemaSkips == 0 {
		t.Fatalf("stats = %+v, want SchemaSkips > 0", st)
	}
	mustPut(t, s2, "k", "v2")
	mustGet(t, s2, "k", "v2")
	s2.Close()
	s3 := openT(t, dir, Options{SchemaVersion: 1})
	if _, ok := s3.Get("k"); ok {
		t.Fatal("new-schema frame served to old-schema reader")
	}
}

// corruptByte flips one byte inside the value region of the first
// frame holding key.
func corruptFrame(t *testing.T, dir string) {
	t.Helper()
	path := segPath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if len(b) < headerSize+13 {
		t.Fatalf("segment too small to corrupt: %d bytes", len(b))
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}
}

func TestStoreCorruptFrameSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "k", strings.Repeat("x", 100))
	s.Close()
	corruptFrame(t, dir)
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	if _, ok := s2.Get("k"); ok {
		t.Fatal("corrupt frame was served")
	}
	if st := s2.Stats(); st.CorruptFrames == 0 {
		t.Fatalf("stats = %+v, want CorruptFrames > 0", st)
	}
	// Write-back heals: the new frame is served, and the segment
	// compacts the dead bytes away.
	mustPut(t, s2, "k", "fresh")
	mustGet(t, s2, "k", "fresh")
	s2.Close()
	s3 := openT(t, dir, Options{SchemaVersion: 1})
	mustGet(t, s3, "k", "fresh")
	if st := s3.Stats(); st.CorruptFrames != 0 {
		t.Fatalf("healed store still scans %d corrupt frames", st.CorruptFrames)
	}
}

func TestStoreCorruptionBetweenFramesResyncs(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "first", strings.Repeat("a", 64))
	firstLen := s.SizeBytes()
	mustPut(t, s, "second", strings.Repeat("b", 64))
	s.Close()
	// Mangle the first frame's length field: the scanner must resync
	// on the second frame's magic rather than derail.
	path := segPath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[5] ^= 0xA5 // payLen of frame one
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = firstLen
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	if _, ok := s2.Get("first"); ok {
		t.Fatal("frame with mangled length was served")
	}
	mustGet(t, s2, "second", strings.Repeat("b", 64))
}

func TestStoreTornTailTruncatedByWriter(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "whole", "value")
	s.Close()
	// Simulate a crash mid-append: a half-written frame at the tail.
	path := segPath(dir)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := encodeFrame(1, "torn", []byte("never committed"))
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn frame was served")
	}
	mustGet(t, s2, "whole", "value")
	mustPut(t, s2, "after", "append lands cleanly")
	mustGet(t, s2, "after", "append lands cleanly")
	s2.Close()
	s3 := openT(t, dir, Options{SchemaVersion: 1})
	mustGet(t, s3, "whole", "value")
	mustGet(t, s3, "after", "append lands cleanly")
	if st := s3.Stats(); st.CorruptFrames != 0 {
		t.Fatalf("truncated tail still scans as %d corrupt frames", st.CorruptFrames)
	}
}

// TestStoreEvictionDropsOldestFirst: the MaxBytes cap keeps the
// newest-appended frames that fit and drops the rest oldest first; a
// read saves no frame, and the newest frame survives a cap it alone
// exceeds.
func TestStoreEvictionDropsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	val := strings.Repeat("v", 200)
	frame := int64(len(encodeFrame(1, "key-00", []byte(val))))
	key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
	// want is the last n keys appended up to key i.
	want := func(i, n int) []string {
		var keys []string
		for j := max(0, i-n+1); j <= i; j++ {
			keys = append(keys, key(j))
		}
		return keys
	}
	cap := 5 * frame
	s := openT(t, dir, Options{SchemaVersion: 1, MaxBytes: cap})
	for i := 0; i < 12; i++ {
		mustPut(t, s, key(i), val)
		if i == 3 {
			mustGet(t, s, key(0), val) // a read does not keep key-00
		}
		if got := s.SizeBytes(); got > cap {
			t.Fatalf("after %s: segment %d bytes exceeds cap %d", key(i), got, cap)
		}
		if got, w := storeKeys(t, s), want(i, 5); !slices.Equal(got, w) {
			t.Fatalf("after %s: live keys %v, want %v", key(i), got, w)
		}
	}
	if st := s.Stats(); st.Evictions != 7 {
		t.Fatalf("stats = %+v, want 7 evictions", st)
	}
	s.Close()
	// A handle with a tighter cap evicts down to it on its next Put.
	s2 := openT(t, dir, Options{SchemaVersion: 1, MaxBytes: 2 * frame})
	mustPut(t, s2, key(12), val)
	if got := s2.SizeBytes(); got > 2*frame {
		t.Fatalf("after eviction segment is %d bytes, want <= %d", got, 2*frame)
	}
	if got, w := storeKeys(t, s2), want(12, 2); !slices.Equal(got, w) {
		t.Fatalf("under the tighter cap: live keys %v, want %v", got, w)
	}
	s2.Close()
	// The newest frame survives a cap smaller than itself.
	s3 := openT(t, dir, Options{SchemaVersion: 1, MaxBytes: 1})
	mustPut(t, s3, key(13), val)
	if got := storeKeys(t, s3); !slices.Equal(got, []string{key(13)}) {
		t.Fatalf("under a one-byte cap: live keys %v, want [%s]", got, key(13))
	}
	mustGet(t, s3, key(13), val)
}

func TestStoreVerify(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "good", "value")
	mustPut(t, s, "bad", "reject me")
	rep, err := s.Verify(func(key string, val []byte) error {
		if key == "bad" {
			return fmt.Errorf("bad value")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Entries != 2 || rep.BadValues != 1 || rep.CorruptFrames != 0 {
		t.Fatalf("report = %+v, want 2 entries, 1 bad, 0 corrupt", rep)
	}
	s.Close()
	// Corrupt the first frame (mid-file, a later frame still intact):
	// truncation cannot heal it, so Verify must report it.
	path := segPath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[20] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	rep2, err := s2.Verify(nil)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep2.CorruptFrames == 0 {
		t.Fatalf("report = %+v, want corrupt frames detected", rep2)
	}
}

func TestStoreConcurrentGoroutines(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	const (
		writers = 4
		readers = 4
		keys    = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%02d", i)
				if err := s.Put(key, []byte("val-"+key)); err != nil {
					t.Errorf("Put(%s): %v", key, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%02d", i)
				if val, ok := s.Get(key); ok && string(val) != "val-"+key {
					t.Errorf("Get(%s) = %q", key, val)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%02d", i)
		mustGet(t, s, key, "val-"+key)
	}
}

// TestStoreTwoProcesses shares one directory between this process and
// a re-executed copy of the test binary, interleaving writes from both
// sides under the advisory lock.
func TestStoreTwoProcesses(t *testing.T) {
	if os.Getenv("STORE_HELPER_DIR") != "" {
		t.Skip("helper invocation")
	}
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "parent-0", "from parent")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestStoreHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "STORE_HELPER_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process: %v\n%s", err, out)
	}
	// The child's commits are visible here without reopening.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("child-%d", i)
		mustGet(t, s, key, "from child "+key)
	}
	mustGet(t, s, "parent-0", "from parent")
	mustPut(t, s, "parent-1", "after child")
	if n := s.Len(); n != 10 {
		t.Fatalf("Len = %d, want 10", n)
	}
}

// TestStoreHelperProcess is the child side of TestStoreTwoProcesses;
// it only runs when re-executed with STORE_HELPER_DIR set.
func TestStoreHelperProcess(t *testing.T) {
	dir := os.Getenv("STORE_HELPER_DIR")
	if dir == "" {
		t.Skip("not a helper invocation")
	}
	s, err := Open(dir, Options{SchemaVersion: 1})
	if err != nil {
		t.Fatalf("child Open: %v", err)
	}
	defer s.Close()
	// The parent's pre-existing entry must be visible.
	if val, ok := s.Get("parent-0"); !ok || string(val) != "from parent" {
		t.Fatalf("child Get(parent-0) = %q, %v", val, ok)
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("child-%d", i)
		if err := s.Put(key, []byte("from child "+key)); err != nil {
			t.Fatalf("child Put(%s): %v", key, err)
		}
	}
}

// segFile stats the segment path: the file it names now.
func segFile(t *testing.T, dir string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(segPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// swapped runs swap and fails unless the segment path names another
// file afterwards.
func swapped(t *testing.T, dir, what string, swap func()) {
	t.Helper()
	before := segFile(t, dir)
	swap()
	if os.SameFile(before, segFile(t, dir)) {
		t.Fatalf("the segment is the same file after %s", what)
	}
}

// swapSegment makes s rewrite its live entries into a new segment file
// renamed over the old one, by superseding a key.
func swapSegment(t *testing.T, s *Store, dir string) {
	t.Helper()
	swapped(t, dir, "a compaction", func() {
		mustPut(t, s, "superseded", "v1")
		mustPut(t, s, "superseded", "v2")
	})
}

// TestStoreSwapSeenByLiveHandle: a handle opened before another handle
// swaps the segment must reopen the path on its next miss and its next
// append, or its writes land in an unlinked file nobody reads.
func TestStoreSwapSeenByLiveHandle(t *testing.T) {
	swaps := map[string]func(t *testing.T, b *Store, dir string){
		"compact": swapSegment,
		"evict": func(t *testing.T, _ *Store, dir string) {
			// A capped handle on the same directory: its first Put
			// evicts everything older to fit the cap of one frame.
			capped := openT(t, dir, Options{SchemaVersion: 1, MaxBytes: 1})
			swapped(t, dir, "an eviction", func() { mustPut(t, capped, "b0", "evicts the rest") })
			if st := capped.Stats(); st.Evictions == 0 {
				t.Fatalf("stats = %+v, want entries evicted", st)
			}
		},
	}
	for name, swap := range swaps {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a := openT(t, dir, Options{SchemaVersion: 1})
			mustPut(t, a, "a0", "before the swap")
			b := openT(t, dir, Options{SchemaVersion: 1})
			swap(t, b, dir)
			mustPut(t, b, "b1", "after the swap")
			mustGet(t, a, "b1", "after the swap")
			mustPut(t, a, "a1", "through the old handle")
			mustGet(t, b, "a1", "through the old handle")
			mustGet(t, a, "a1", "through the old handle")
			c := openT(t, dir, Options{SchemaVersion: 1})
			mustGet(t, c, "a1", "through the old handle")
			mustGet(t, c, "b1", "after the swap")
			if a.Len() != c.Len() || b.Len() != c.Len() {
				t.Fatalf("Len: a %d, b %d, fresh handle %d", a.Len(), b.Len(), c.Len())
			}
			if st := c.Stats(); st.Orphans != 0 || st.CorruptFrames != 0 {
				t.Fatalf("fresh handle stats = %+v, want no orphans and no corrupt frames", st)
			}
		})
	}
}

// TestStoreOpenRemovesOrphans: a compaction that dies before its
// rename leaves records.log.tmp behind; the next Open removes it and
// serves the segment as it was.
func TestStoreOpenRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SchemaVersion: 1})
	mustPut(t, s, "k", "v")
	old, err := os.ReadFile(segPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	swapSegment(t, s, dir)
	s.Close()
	if err := os.WriteFile(segPath(dir)+".tmp", old, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{SchemaVersion: 1})
	if got := s2.Stats().Orphans; got != 1 {
		t.Fatalf("Orphans = %d, want 1", got)
	}
	mustGet(t, s2, "k", "v")
	mustGet(t, s2, "superseded", "v2")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("directory holds %d files after Open, want LOCK and the segment", len(ents))
	}
	s2.Close()
	if got := openT(t, dir, Options{SchemaVersion: 1}).Stats().Orphans; got != 0 {
		t.Fatalf("second Open removed %d more orphans", got)
	}
}

// compactNow rewrites s's segment as a writer would before its next
// append.
func compactNow(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := flockEx(s.lockFile); err != nil {
		t.Fatal(err)
	}
	defer flockUn(s.lockFile) //nolint:errcheck // advisory unlock
	err := s.refreshLocked(true)
	if err == nil {
		err = s.compactLocked()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestStoreCompactionKeepsSegmentOrder: two handles on one directory
// read its keys in opposite orders, and each compacts the same segment,
// which holds a superseded frame. The two compacted segments are
// byte-equal: the live frames in the order they were appended, whatever
// either handle read.
func TestStoreCompactionKeepsSegmentOrder(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{SchemaVersion: 1})
	key := func(i int) string { return fmt.Sprintf("key-%d", i) }
	val := func(i int) string { return fmt.Sprintf("value %d", i) }
	for i := 0; i < 8; i++ {
		mustPut(t, w, key(i), val(i))
	}
	w.Close()
	// Supersede key-2 by hand: a Put would compact at once.
	f, err := os.OpenFile(segPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeFrame(1, key(2), []byte("superseded"))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	src, err := os.ReadFile(segPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	a := openT(t, dir, Options{SchemaVersion: 1})
	b := openT(t, dir, Options{SchemaVersion: 1})
	var compacted [2][]byte
	for h, c := range []struct {
		s     *Store
		order []int
	}{{a, []int{0, 1, 2, 3, 4, 5, 6, 7}}, {b, []int{7, 6, 5, 4, 3, 2, 1, 0}}} {
		if h > 0 {
			// Put the uncompacted segment back as a new file, as a
			// compactor's rename would, and let b index it afresh.
			if err := os.WriteFile(segPath(dir)+".src", src, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(segPath(dir)+".src", segPath(dir)); err != nil {
				t.Fatal(err)
			}
			if n := c.s.Len(); n != 8 {
				t.Fatalf("b indexes %d keys of the restored segment, want 8", n)
			}
		}
		for _, i := range c.order {
			want := val(i)
			if i == 2 {
				want = "superseded"
			}
			mustGet(t, c.s, key(i), want)
		}
		compactNow(t, c.s)
		if compacted[h], err = os.ReadFile(segPath(dir)); err != nil {
			t.Fatal(err)
		}
	}
	if string(compacted[0]) != string(compacted[1]) {
		t.Fatal("two handles compacted one segment into different bytes")
	}
	var want []byte
	for _, i := range []int{0, 1, 3, 4, 5, 6, 7} {
		want = appendFrame(want, 1, key(i), []byte(val(i)))
	}
	want = appendFrame(want, 1, key(2), []byte("superseded"))
	if string(compacted[0]) != string(want) {
		t.Fatal("the compacted segment does not hold the live frames in the order they were appended")
	}
}

// fakeClock is the injected clock of the sync-window tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func openWithClock(t *testing.T, dir string) (*Store, *fakeClock) {
	t.Helper()
	s := openT(t, dir, Options{SchemaVersion: 1})
	c := &fakeClock{t: time.Unix(1, 0)}
	s.now, s.lastSync = c.now, c.t
	return s, c
}

func TestStoreSyncsAtCommitPoints(t *testing.T) {
	t.Run("burst shares one fsync", func(t *testing.T) {
		s, _ := openWithClock(t, t.TempDir())
		for i := 0; i < 2048; i++ {
			mustPut(t, s, fmt.Sprintf("key-%04d", i), "value")
		}
		if got := s.Stats().Syncs; got > 1 {
			t.Fatalf("2048 back-to-back Puts issued %d fsyncs", got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Syncs; got < 1 || got > 2 {
			t.Fatalf("2048 Puts and Close issued %d fsyncs, want 1 or 2", got)
		}
	})
	t.Run("spaced Puts sync one each", func(t *testing.T) {
		s, c := openWithClock(t, t.TempDir())
		for i := 1; i <= 8; i++ {
			c.t = c.t.Add(syncWindow)
			mustPut(t, s, fmt.Sprintf("key-%d", i), "value")
			if got := s.Stats().Syncs; got != int64(i) {
				t.Fatalf("after %d spaced Puts: %d fsyncs", i, got)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Syncs; got != 8 {
			t.Fatalf("Close of a synced store raised fsyncs to %d", got)
		}
	})
	t.Run("Sync is free on a clean store", func(t *testing.T) {
		s, _ := openWithClock(t, t.TempDir())
		for i := 0; i < 2; i++ {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Stats().Syncs; got != 0 {
			t.Fatalf("Sync on a clean store issued %d fsyncs", got)
		}
		mustPut(t, s, "k", "v")
		for i := 0; i < 2; i++ {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Syncs != 1 || st.SyncNanos <= 0 {
			t.Fatalf("one Put and two Syncs: stats = %+v, want exactly one timed fsync", st)
		}
	})
	t.Run("compaction commits what it rewrote", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openWithClock(t, dir)
		mustPut(t, s, "k", "v")
		swapSegment(t, s, dir)
		if got := s.Stats().Syncs; got != 1 {
			t.Fatalf("compaction issued %d fsyncs, want 1", got)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		// Only the frame appended after the rewrite was still pending.
		if got := s.Stats().Syncs; got != 2 {
			t.Fatalf("Sync after compaction and one append: %d fsyncs, want 2", got)
		}
	})
}

// storeFromSegment lays out a store directory around the given segment
// bytes: what a machine finds after a power loss.
func storeFromSegment(t *testing.T, seg []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStorePowerLossInUnsyncedRun damages the frames appended since the
// last fsync in every way a file system may: cut short at any byte,
// zero pages in place of the tail, zero pages in the middle. Every
// frame left whole must be served, nothing else, and the next Put must
// leave a segment that scans clean.
func TestStorePowerLossInUnsyncedRun(t *testing.T) {
	const frames = 5
	val := func(i int) string { return fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 20+i)) }
	src := t.TempDir()
	s, _ := openWithClock(t, src)
	ends := make([]int, frames) // ends[i]: segment size once frame i is appended
	for i := 0; i < frames; i++ {
		mustPut(t, s, fmt.Sprintf("key-%d", i), val(i))
		if i == 0 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		ends[i] = int(s.SizeBytes())
	}
	if got := s.Stats().Syncs; got != 1 {
		t.Fatalf("%d fsyncs while building, want frames 1..%d unsynced", got, frames-1)
	}
	full, err := os.ReadFile(segPath(src))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// check reopens seg and requires exactly the frames in whole to be
	// served, then heals with one Put and requires a clean rescan.
	check := func(t *testing.T, seg []byte, whole map[int]bool) {
		t.Helper()
		dir := storeFromSegment(t, seg)
		s := openT(t, dir, Options{SchemaVersion: 1})
		for i := 0; i < frames; i++ {
			got, ok := s.Get(fmt.Sprintf("key-%d", i))
			if ok != whole[i] || ok && string(got) != val(i) {
				t.Fatalf("key-%d: served=%v value %q, want served=%v", i, ok, got, whole[i])
			}
		}
		mustPut(t, s, "healer", "appended after the damage")
		s.Close()
		s2 := openT(t, dir, Options{SchemaVersion: 1})
		if st := s2.Stats(); st.CorruptFrames != 0 {
			t.Fatalf("healed segment still scans %d corrupt frames", st.CorruptFrames)
		}
		if n := s2.Len(); n != len(whole)+1 {
			t.Fatalf("healed store holds %d entries, want %d", n, len(whole)+1)
		}
		mustGet(t, s2, "healer", "appended after the damage")
		for i := range whole {
			mustGet(t, s2, fmt.Sprintf("key-%d", i), val(i))
		}
	}
	wholeUpTo := func(cut int) map[int]bool {
		whole := map[int]bool{}
		for i, end := range ends {
			if end <= cut {
				whole[i] = true
			}
		}
		return whole
	}

	t.Run("truncated at every offset", func(t *testing.T) {
		for cut := ends[0]; cut < len(full); cut++ {
			check(t, full[:cut], wholeUpTo(cut))
		}
	})
	t.Run("zero tail", func(t *testing.T) {
		for _, cut := range []int{ends[0], ends[1] + 7, ends[2]} {
			seg := append(append([]byte{}, full[:cut]...), make([]byte, len(full)-cut)...)
			check(t, seg, wholeUpTo(cut))
		}
	})
	t.Run("zero hole mid-segment", func(t *testing.T) {
		// Frames 1 and 2 never reached the disk, frames 3 and 4 did.
		seg := append([]byte{}, full...)
		for i := ends[0]; i < ends[2]; i++ {
			seg[i] = 0
		}
		check(t, seg, map[int]bool{0: true, 3: true, 4: true})
		// The hole swallows the first half of frame 3 as well.
		for i := ends[2]; i < (ends[2]+ends[3])/2; i++ {
			seg[i] = 0
		}
		check(t, seg, map[int]bool{0: true, 4: true})
	})
}

// BenchmarkGet times a warm AppendGet of a record-sized value into a
// reused buffer: the pread, the CRC check and the copy out.
func BenchmarkGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{SchemaVersion: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := []byte(strings.Repeat("r", 450))
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		if err := s.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if dst, ok = s.AppendGet(dst[:0], keys[i%len(keys)]); !ok {
			b.Fatal("warm AppendGet missed")
		}
	}
}

// BenchmarkPut times appends of record-sized values, Close included,
// and reports how many fsyncs each one cost.
func BenchmarkPut(b *testing.B) {
	val := []byte(strings.Repeat("r", 450))
	for _, writers := range []int{1, 2} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{SchemaVersion: 1})
			if err != nil {
				b.Fatal(err)
			}
			keys := make([]string, b.N)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%08d", i)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < b.N; i += writers {
						if err := s.Put(keys[i], val); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.Stats().Syncs)/float64(b.N), "fsyncs/op")
		})
	}
}
