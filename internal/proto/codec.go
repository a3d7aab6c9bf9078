package proto

import (
	"encoding/binary"
	"fmt"
)

// Concrete wire format for write-notice batches. BatchBytes has always
// *modeled* the run-length-encoded size of consistency information in
// flight; this codec realizes the format those numbers describe, so the
// byte model is pinned by round-trip tests instead of being a free
// constant:
//
//	per interval: 16-byte header  [proc, interval, nruns, reserved]  (int32 LE)
//	per run:       8-byte record  [first page, run length]           (int32 LE)
//
// A run covers consecutive ascending page ids, split exactly where
// pageRuns splits them, so len(EncodeBatches(bs)) == BatchBytes(bs) for
// every batch list the protocols produce (batches and intervals are
// never empty on the wire; an interval's page list is preserved
// verbatim, including write-touch order).

// intervalHdrBytes and runBytes are the record sizes of the format.
const (
	intervalHdrBytes = 16
	runBytes         = 8
)

// maxDecodePages bounds the total number of pages one DecodeBatches
// call will materialize (a 4 MB page list). Legitimate notice batches
// are orders of magnitude smaller; without the bound a corrupt 24-byte
// record claiming a 2^31-page run would amplify into a gigabyte
// allocation.
const maxDecodePages = 1 << 20

// EncodeBatches serializes notice batches into the RLE wire format.
func EncodeBatches(bs []NoticeBatch) []byte {
	out := make([]byte, 0, BatchBytes(bs))
	put := func(v int32) {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	for _, b := range bs {
		for _, iv := range b.Intervals {
			put(int32(b.Proc))
			put(iv.Interval)
			put(int32(pageRuns(iv.Pages)))
			put(0) // reserved
			for i := 0; i < len(iv.Pages); {
				j := i + 1
				for j < len(iv.Pages) && iv.Pages[j] == iv.Pages[j-1]+1 {
					j++
				}
				put(iv.Pages[i])
				put(int32(j - i))
				i = j
			}
		}
	}
	return out
}

// DecodeBatches parses the RLE wire format back into notice batches,
// grouping consecutive intervals of the same process into one batch —
// the inverse of EncodeBatches for every batch list the protocols
// produce (per-process batches in order, each non-empty).
func DecodeBatches(buf []byte) ([]NoticeBatch, error) {
	var out []NoticeBatch
	off := 0
	var pages int64
	get := func() int32 {
		v := int32(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		return v
	}
	for off < len(buf) {
		if len(buf)-off < intervalHdrBytes {
			return nil, fmt.Errorf("proto: truncated interval header at byte %d", off)
		}
		proc := int(get())
		interval := get()
		nruns := int(get())
		if reserved := get(); reserved != 0 {
			return nil, fmt.Errorf("proto: bad reserved word %d at byte %d", reserved, off-4)
		}
		if nruns < 0 || len(buf)-off < nruns*runBytes {
			return nil, fmt.Errorf("proto: truncated runs (%d) at byte %d", nruns, off)
		}
		iv := IntervalRec{Interval: interval}
		for r := 0; r < nruns; r++ {
			first := get()
			count := get()
			if count <= 0 {
				return nil, fmt.Errorf("proto: bad run length %d at byte %d", count, off-4)
			}
			pages += int64(count)
			if pages > maxDecodePages {
				return nil, fmt.Errorf("proto: implausible page total %d at byte %d", pages, off-4)
			}
			for k := int32(0); k < count; k++ {
				iv.Pages = append(iv.Pages, first+k)
			}
		}
		if len(out) == 0 || out[len(out)-1].Proc != proc {
			out = append(out, NoticeBatch{Proc: proc})
		}
		last := &out[len(out)-1]
		last.Intervals = append(last.Intervals, iv)
	}
	return out, nil
}
