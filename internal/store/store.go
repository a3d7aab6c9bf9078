// Package store is a zero-dependency, disk-backed record store mapping
// (Spec.Key(), schema version) -> the exact JSON-line record bytes the
// sweep engine would emit. The simulator is deterministic, so a record
// is content-addressable by its spec key: any committed value IS the
// value, forever, and serving it back is byte-identical to re-running.
//
// Layout (one directory per store):
//
//	DIR/LOCK         advisory flock target (never written)
//	DIR/records.log  the segment: append-only frames (see below)
//
// Each entry is one frame:
//
//	magic  u32  "DSR1" (little-endian on disk)
//	payLen u32  length of the payload that follows the header
//	crc    u32  IEEE CRC-32 of the payload
//	payload:
//	    schema u32
//	    keyLen u32, key bytes
//	    valLen u32, val bytes
//
// Durability is lazy, in the manner of the release consistency the
// simulated protocols use: the work is aggregated and paid at commit
// points. Put appends its frame under the lock and returns: the frame
// is visible to every handle and process at once and survives the
// death of this process (kill -9 included), because it sits in the
// kernel's page cache. Sync makes every frame appended so far survive a
// power loss or kernel crash with one fsync, and none when nothing is
// pending; Close calls it, compaction implies it, the sweep engine calls
// it at the end of every sweep and lease, and Put calls it itself when
// the last one is older than syncWindow, so a run of Puts each slower
// than the window is synced frame by frame and only a burst shares an
// fsync. A power loss can therefore cost the frames appended since the
// last commit point and nothing else: every value is recomputable, and
// whatever the file system left of those frames — missing bytes, zero
// pages, a partial frame — fails the frame checks below and is never
// served.
//
// Crash safety: a torn append leaves an incomplete frame at the tail;
// readers stop scanning there (never serving it) and the next writer —
// which holds the exclusive lock, so nothing can be mid-append —
// truncates the garbage before appending. In-place corruption (bad
// CRC, mangled lengths, a zero-filled hole) is skipped by
// resynchronizing on the magic and counted, and the next write compacts
// the segment to drop the dead bytes. Get re-verifies the CRC on every
// read, so a frame corrupted after indexing is still never served.
// Compaction writes DIR/records.log.tmp, fsyncs it, renames it over the
// segment and fsyncs the directory; Open removes the temp file a
// crashed compaction left behind.
//
// Concurrency: one *Store is safe for any number of goroutines, and
// any number of OS processes may share a directory. Writers serialize
// on an exclusive flock of DIR/LOCK and fstat their open segment before
// every append — its tail carries other processes' frames, and a
// segment the path no longer names was replaced by a compaction, so the
// path is reopened and indexed afresh — so each process sees all
// appended entries; readers are lock-free against their open segment
// handle (a concurrent compaction unlinks it, which POSIX keeps
// readable).
//
// Compaction and the MaxBytes cap both walk the live frames in segment
// order: the cap drops the oldest-appended frames first, and a
// compacted segment holds the survivors in the order they were
// appended, whichever process read what.
package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	magic      = 0x31525344 // "DSR1" little-endian
	headerSize = 12         // magic + payLen + crc
	maxKeyLen  = 1 << 12
	maxValLen  = 1 << 24
	segName    = "records.log"
	lockName   = "LOCK"

	// syncWindow is the longest a Put lets the previous fsync age before
	// paying one itself. Runs whose records arrive further apart than
	// this (mid and paper scale) are synced frame by frame; only bursts
	// of millisecond runs share an fsync.
	syncWindow = 64 * time.Millisecond
)

// openErrors counts failed Open calls process-wide, for the telemetry
// store section's open_errors.
var openErrors atomic.Int64

// OpenErrors returns the number of Open calls that failed in this
// process.
func OpenErrors() int64 { return openErrors.Load() }

// Options configures a store.
type Options struct {
	// MaxBytes caps the segment file size; exceeding it drops the
	// oldest-appended entries (the newest entry always survives, even if
	// it alone exceeds the cap). Zero means unbounded.
	MaxBytes int64
	// SchemaVersion is stamped into every frame; frames carrying any
	// other version are never indexed, never served, and dropped at the
	// next compaction. Bump it when the record schema changes shape.
	SchemaVersion uint32
}

// Stats is a snapshot of the store's lifetime counters (this process,
// this *Store).
type Stats struct {
	Hits          int64 `json:"hits"`           // Get calls served from disk
	Misses        int64 `json:"misses"`         // Get calls that found no entry
	Puts          int64 `json:"puts"`           // frames appended (deduplicated Puts excluded)
	Evictions     int64 `json:"evictions"`      // entries dropped by the MaxBytes cap
	CorruptFrames int64 `json:"corrupt_frames"` // frames skipped for bad CRC or mangled framing
	SchemaSkips   int64 `json:"schema_skips"`   // frames skipped for a schema-version mismatch
	Compactions   int64 `json:"compactions"`    // segment rewrites
	Syncs         int64 `json:"syncs"`          // segment fsyncs (commit points and compactions)
	SyncNanos     int64 `json:"sync_ns"`        // host time spent in those fsyncs
	Orphans       int64 `json:"orphans"`        // compaction temp files removed by Open
}

// entry is one live key in the in-memory index.
type entry struct {
	key      string
	off      int64 // frame start in the segment
	frameLen int64
}

// Store is a handle on one store directory. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	path string // DIR/records.log
	opt  Options

	mu       sync.Mutex
	lockFile *os.File
	seg      *os.File
	size     int64 // segment bytes covered by the scan (append offset)
	index    map[string]*entry
	// segDirty is true when the current segment carries dead bytes
	// (corrupt frames, schema mismatches, superseded keys) worth
	// compacting away on the next write.
	segDirty bool
	closed   bool
	// unsynced is true while the segment holds frames appended since the
	// last fsync; lastSync is when that fsync (or Open) happened, read
	// through now so tests can drive the window.
	unsynced bool
	lastSync time.Time
	now      func() time.Time
	// rbuf and wbuf are the frame buffers, reused from one call to the
	// next: rbuf holds the frame readEntryLocked last read and verified,
	// wbuf the frame Put last built. Neither leaves the lock — AppendGet
	// copies a value out, and Verify's check sees one only during the
	// call.
	rbuf, wbuf []byte

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	evictions   atomic.Int64
	corrupt     atomic.Int64
	schemaSkips atomic.Int64
	compactions atomic.Int64
	syncs       atomic.Int64
	syncNanos   atomic.Int64
	orphans     atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opt Options) (*Store, error) {
	s, err := open(dir, opt)
	if err != nil {
		openErrors.Add(1)
	}
	return s, err
}

func open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		path:     filepath.Join(dir, segName),
		opt:      opt,
		lockFile: lf,
		index:    map[string]*entry{},
		lastSync: time.Now(),
		now:      time.Now,
	}
	// Exclusive init: the first opener creates the segment; everyone
	// else just scans. Nothing can be mid-compaction under the lock, so
	// a temp file is what a crashed compaction left.
	if err := flockEx(lf); err != nil {
		lf.Close()
		return nil, fmt.Errorf("store: lock %s: %w", dir, err)
	}
	if err = s.refreshLocked(true); err == nil {
		if err = os.Remove(s.path + ".tmp"); err == nil {
			s.orphans.Add(1)
		} else if os.IsNotExist(err) {
			err = nil
		}
	}
	if uerr := flockUn(lf); uerr != nil && err == nil {
		err = uerr
	}
	if err != nil {
		lf.Close()
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return s, nil
}

// Sync makes every frame appended so far durable with one fsync. On a
// store with nothing pending it makes no system call.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

// Close syncs pending frames and releases the store's file handles.
// The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if cerr := s.seg.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.seg = nil
	if cerr := s.lockFile.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the lifetime counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Puts:          s.puts.Load(),
		Evictions:     s.evictions.Load(),
		CorruptFrames: s.corrupt.Load(),
		SchemaSkips:   s.schemaSkips.Load(),
		Compactions:   s.compactions.Load(),
		Syncs:         s.syncs.Load(),
		SyncNanos:     s.syncNanos.Load(),
		Orphans:       s.orphans.Load(),
	}
}

// Get returns a copy of the stored value for key, re-verifying its
// checksum. A frame that fails verification is dropped from the index
// and reported as a miss, so a corrupted entry is transparently
// recomputed by the caller and healed by its write-back.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.AppendGet(nil, key)
}

// AppendGet is Get appending the verified value to dst: a caller that
// reuses dst reads a warm entry without allocating. On a miss or a
// failed check it returns dst unchanged.
func (s *Store) AppendGet(dst []byte, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.misses.Add(1)
		return dst, false
	}
	en := s.index[key]
	if en == nil {
		// Another process may have committed the key since our last
		// scan: refresh once, then decide.
		if err := s.refreshLocked(false); err == nil {
			en = s.index[key]
		}
	}
	if en == nil {
		s.misses.Add(1)
		return dst, false
	}
	_, val, err := s.readEntryLocked(en)
	if err != nil {
		s.dropCorruptLocked(en)
		s.misses.Add(1)
		return dst, false
	}
	s.hits.Add(1)
	return append(dst, val...), true
}

// Has reports whether key is indexed, refreshing once on a miss as
// AppendGet does. It reads no value and counts neither a hit nor a
// miss: an indexed frame can still fail its check when it is read.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.index[key] != nil {
		return true
	}
	return s.refreshLocked(false) == nil && s.index[key] != nil
}

// Put stores value under key. Writes go through the exclusive
// directory lock: refresh, truncate any torn tail, compact if the
// segment is dirty or over budget, append — and fsync only when the
// last one is older than syncWindow (see Sync). Re-putting an
// identical value is a no-op; a different value supersedes the old
// frame (determinism makes that unexpected, but the newest write
// wins).
func (s *Store) Put(key string, value []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range", len(key))
	}
	if len(value) > maxValLen {
		return fmt.Errorf("store: value length %d exceeds %d", len(value), maxValLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if err := flockEx(s.lockFile); err != nil {
		return fmt.Errorf("store: lock: %w", err)
	}
	defer flockUn(s.lockFile) //nolint:errcheck // advisory unlock
	if err := s.refreshLocked(true); err != nil {
		return err
	}
	if old := s.index[key]; old != nil {
		if _, oldVal, err := s.readEntryLocked(old); err == nil && string(oldVal) == string(value) {
			return nil
		}
		delete(s.index, key)
		s.segDirty = true
	}
	if s.segDirty {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	s.wbuf = appendFrame(s.wbuf[:0], s.opt.SchemaVersion, key, value)
	frame := s.wbuf
	if _, err := s.seg.WriteAt(frame, s.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.index[key] = &entry{key: key, off: s.size, frameLen: int64(len(frame))}
	s.size += int64(len(frame))
	s.puts.Add(1)
	s.unsynced = true
	if s.opt.MaxBytes > 0 && s.size > s.opt.MaxBytes {
		if err := s.evictLocked(s.opt.MaxBytes); err != nil {
			return err
		}
	}
	if s.now().Sub(s.lastSync) >= syncWindow {
		return s.syncLocked()
	}
	return nil
}

// Len returns the number of live entries (refreshing from disk first).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	s.refreshLocked(false) //nolint:errcheck // stale view on error
	return len(s.index)
}

// SizeBytes returns the current segment size in bytes.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	s.refreshLocked(false) //nolint:errcheck // stale view on error
	return s.size
}

// VerifyReport summarizes a Verify pass.
type VerifyReport struct {
	// Entries is the number of live entries checked.
	Entries int
	// Bytes is the segment size in bytes.
	Bytes int64
	// CorruptFrames counts frames that failed checksum or framing
	// verification — dead bytes found while scanning the segment plus
	// any live entry whose re-read failed.
	CorruptFrames int
	// SchemaSkips counts frames stamped with a different schema
	// version.
	SchemaSkips int
	// BadValues counts live entries the caller's check rejected.
	BadValues int
}

// Verify re-scans the segment from scratch and re-reads every live
// entry, verifying checksums; check, when non-nil, is called with each
// key and value (in sorted key order) and may reject the value. The
// value is the store's read buffer, valid only during the call: a check
// that keeps any of it copies it. The report counts everything found
// wrong; err is non-nil only when the store itself cannot be read.
func (s *Store) Verify(check func(key string, value []byte) error) (VerifyReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep VerifyReport
	if s.closed {
		return rep, errors.New("store: closed")
	}
	// Force a from-scratch scan so the report reflects the segment as
	// it is now, not counters accumulated across compactions.
	s.resetIndexLocked()
	corrupt0, schema0 := s.corrupt.Load(), s.schemaSkips.Load()
	if err := s.refreshLocked(false); err != nil {
		return rep, err
	}
	rep.CorruptFrames = int(s.corrupt.Load() - corrupt0)
	rep.SchemaSkips = int(s.schemaSkips.Load() - schema0)
	rep.Bytes = s.size
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		en := s.index[k]
		_, val, err := s.readEntryLocked(en)
		if err != nil {
			s.dropCorruptLocked(en)
			rep.CorruptFrames++
			continue
		}
		rep.Entries++
		if check != nil {
			if err := check(k, val); err != nil {
				rep.BadValues++
			}
		}
	}
	return rep, nil
}

// --- internals (all require s.mu) ---

// refreshLocked brings the index up to date with the directory: it
// fstats the open segment, reopens the path when a compactor has
// replaced that segment (the index is rebuilt for the new one) and
// scans any bytes appended since the last scan. With writer=true the
// caller holds the exclusive flock, so an unparseable tail cannot be an
// in-flight append and is truncated away; readers leave it for the
// next writer.
func (s *Store) refreshLocked(writer bool) error {
	var st os.FileInfo
	if s.seg != nil {
		var err error
		if st, err = s.seg.Stat(); err != nil {
			return fmt.Errorf("store: segment: %w", err)
		}
	}
	if s.seg == nil || replaced(st, s.path) {
		seg, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: segment: %w", err)
		}
		if s.seg != nil {
			s.seg.Close()
		}
		s.seg = seg
		s.resetIndexLocked()
		if st, err = s.seg.Stat(); err != nil {
			return fmt.Errorf("store: segment: %w", err)
		}
	}
	if st.Size() > s.size {
		if err := s.scanTailLocked(st.Size(), writer); err != nil {
			return err
		}
	}
	return nil
}

// resetIndexLocked forgets everything scanned, so the next refresh
// indexes the open segment from its first byte.
func (s *Store) resetIndexLocked() {
	s.size = 0
	s.segDirty = false
	clear(s.index)
}

// syncLocked fsyncs the segment if frames were appended since the last
// fsync, and restarts the sync window.
func (s *Store) syncLocked() error {
	if !s.unsynced {
		return nil
	}
	if err := s.fsync(s.seg); err != nil {
		return err
	}
	s.unsynced, s.lastSync = false, s.now()
	return nil
}

// fsync syncs f, counting and timing the call.
func (s *Store) fsync(f *os.File) error {
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.syncNanos.Add(time.Since(start).Nanoseconds())
	s.syncs.Add(1)
	return nil
}

// scanTailLocked parses frames in [s.size, end), indexing every intact
// frame with the right schema version. Corrupt frames are skipped by
// resyncing on the magic; an unparseable tail with no valid frame
// after it stops the scan (a reader may be seeing a torn or in-flight
// append) — unless writer is set, in which case it is truncated away.
func (s *Store) scanTailLocked(end int64, writer bool) error {
	data := make([]byte, end-s.size)
	if _, err := s.seg.ReadAt(data, s.size); err != nil && err != io.EOF {
		return fmt.Errorf("store: read segment: %w", err)
	}
	pos := 0
	for pos < len(data) {
		frameLen, k, ok := parseFrame(data[pos:], s.opt.SchemaVersion)
		if ok {
			if len(k) != 0 { // schema match
				key := string(k) // the index's own copy: data is scratch
				if s.index[key] != nil {
					s.segDirty = true // superseded
				}
				s.index[key] = &entry{key: key, off: s.size + int64(pos), frameLen: int64(frameLen)}
			} else {
				s.schemaSkips.Add(1)
				s.segDirty = true
			}
			pos += frameLen
			continue
		}
		// Bad frame: hunt for the next one that parses clean.
		next := resync(data[pos+1:], s.opt.SchemaVersion)
		if next < 0 {
			// Garbage to end-of-data: a torn (or in-flight) tail.
			if writer {
				if err := s.seg.Truncate(s.size + int64(pos)); err != nil {
					return fmt.Errorf("store: truncate torn tail: %w", err)
				}
				s.corrupt.Add(1)
			}
			s.size += int64(pos)
			return nil
		}
		s.corrupt.Add(1)
		s.segDirty = true
		pos += 1 + next
	}
	s.size = end
	return nil
}

// parseFrame parses one frame at the head of data. ok reports an
// intact frame of length frameLen; key is the frame's key, in place in
// data — a warm Get compares it and copies nothing — and empty when the
// frame's schema version does not match want.
func parseFrame(data []byte, want uint32) (frameLen int, key []byte, ok bool) {
	if len(data) < headerSize {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint32(data[0:4]) != magic {
		return 0, nil, false
	}
	payLen := binary.LittleEndian.Uint32(data[4:8])
	if payLen < 12 || payLen > maxKeyLen+maxValLen+12 {
		return 0, nil, false
	}
	if len(data) < headerSize+int(payLen) {
		return 0, nil, false
	}
	pay := data[headerSize : headerSize+int(payLen)]
	if crc32.ChecksumIEEE(pay) != binary.LittleEndian.Uint32(data[8:12]) {
		return 0, nil, false
	}
	schema := binary.LittleEndian.Uint32(pay[0:4])
	keyLen := binary.LittleEndian.Uint32(pay[4:8])
	if keyLen == 0 || keyLen > maxKeyLen || 8+keyLen+4 > payLen {
		return 0, nil, false
	}
	valLen := binary.LittleEndian.Uint32(pay[8+keyLen : 12+keyLen])
	if uint64(12)+uint64(keyLen)+uint64(valLen) != uint64(payLen) {
		return 0, nil, false
	}
	frameLen = headerSize + int(payLen)
	if schema != want {
		return frameLen, nil, true
	}
	return frameLen, pay[8 : 8+keyLen], true
}

// resync finds the offset of the next intact frame in data, or -1.
func resync(data []byte, want uint32) int {
	for i := 0; i+headerSize <= len(data); i++ {
		if binary.LittleEndian.Uint32(data[i:i+4]) != magic {
			continue
		}
		if _, _, ok := parseFrame(data[i:], want); ok {
			return i
		}
	}
	return -1
}

// appendFrame renders one frame onto dst. value must not alias dst's
// spare capacity: the frame is written over it.
func appendFrame(dst []byte, schema uint32, key string, value []byte) []byte {
	payLen := 12 + len(key) + len(value)
	n := len(dst)
	dst = slices.Grow(dst, headerSize+payLen)[:n+headerSize+payLen]
	buf := dst[n:]
	binary.LittleEndian.PutUint32(buf[0:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(payLen))
	pay := buf[headerSize:]
	binary.LittleEndian.PutUint32(pay[0:4], schema)
	binary.LittleEndian.PutUint32(pay[4:8], uint32(len(key)))
	copy(pay[8:], key)
	binary.LittleEndian.PutUint32(pay[8+len(key):12+len(key)], uint32(len(value)))
	copy(pay[12+len(key):], value)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(pay))
	return dst
}

// readEntryLocked re-reads and re-verifies one live frame into s.rbuf,
// returning the frame and its value: views of s.rbuf, dead at the next
// read.
func (s *Store) readEntryLocked(en *entry) (frame, val []byte, err error) {
	s.rbuf = slices.Grow(s.rbuf[:0], int(en.frameLen))[:en.frameLen]
	frame = s.rbuf
	if _, err := s.seg.ReadAt(frame, en.off); err != nil {
		return nil, nil, fmt.Errorf("store: read frame: %w", err)
	}
	frameLen, key, ok := parseFrame(frame, s.opt.SchemaVersion)
	if !ok || int64(frameLen) != en.frameLen || string(key) != en.key {
		return nil, nil, errors.New("store: frame failed verification")
	}
	return frame, frame[headerSize+12+len(key):], nil
}

// dropCorruptLocked removes an entry whose frame failed its re-read from
// the index, counting it and marking its bytes for compaction.
func (s *Store) dropCorruptLocked(en *entry) {
	delete(s.index, en.key)
	s.corrupt.Add(1)
	s.segDirty = true
}

// liveLocked returns the live entries in segment order.
func (s *Store) liveLocked() []*entry {
	live := make([]*entry, 0, len(s.index))
	for _, en := range s.index {
		live = append(live, en)
	}
	slices.SortFunc(live, func(a, b *entry) int { return cmp.Compare(a.off, b.off) })
	return live
}

// evictLocked drops the oldest-appended entries until the live bytes
// fit targetBytes, then compacts. The newest entry always survives.
// Caller holds the exclusive flock.
func (s *Store) evictLocked(targetBytes int64) error {
	live := s.liveLocked()
	total := int64(0)
	for _, en := range live {
		total += en.frameLen
	}
	dropped := 0
	for ; total > targetBytes && dropped < len(live)-1; dropped++ {
		total -= live[dropped].frameLen
		delete(s.index, live[dropped].key)
	}
	if dropped > 0 {
		s.evictions.Add(int64(dropped))
		s.segDirty = true
	}
	if s.segDirty {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the live entries, in segment order, into
// records.log.tmp, fsyncs it and renames it over the segment. Caller
// holds the exclusive flock.
func (s *Store) compactLocked() error {
	tmpPath := s.path + ".tmp"
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	abandon := func(err error) error {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	live := s.liveLocked()
	offs := make([]int64, len(live)) // each entry's new offset; -1 if its frame failed
	off := int64(0)
	for i, en := range live {
		// A verified frame is the frame appendFrame would build from its
		// schema, key and value: it is copied as read.
		frame, _, rerr := s.readEntryLocked(en)
		if rerr != nil {
			s.corrupt.Add(1)
			offs[i] = -1
			continue
		}
		if _, err := f.Write(frame); err != nil {
			return abandon(fmt.Errorf("store: compact: %w", err))
		}
		offs[i] = off
		off += int64(len(frame))
	}
	if err := s.fsync(f); err != nil {
		return abandon(err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return abandon(fmt.Errorf("store: compact: %w", err))
	}
	if err := syncDir(s.dir); err != nil {
		// The rename happened: the unlinked old handle makes the next
		// refresh reopen the path and rescan.
		f.Close()
		return err
	}
	s.seg.Close()
	s.seg = f
	s.size = off
	s.segDirty = false
	s.unsynced, s.lastSync = false, s.now() // every live frame was just synced
	for i, en := range live {
		if offs[i] < 0 {
			delete(s.index, en.key)
		} else {
			en.off = offs[i]
		}
	}
	s.compactions.Add(1)
	return nil
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
