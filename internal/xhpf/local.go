package xhpf

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pvm"
	"repro/internal/stats"
)

// BlockBounds returns the nprocs+1 boundaries of the BLOCK distribution
// of n rows: processor q owns rows [b[q], b[q+1]), the BlockOf blocks,
// any empty ones trailing.
func BlockBounds(nprocs, n int) []int {
	b := make([]int, nprocs+1)
	for q := range b {
		b[q], _ = BlockOf(q, nprocs, n)
	}
	return b
}

// Local is what one processor holds of a two-dimensional array
// distributed by whole rows: the rows [lo, hi) it owns and up to halo
// rows of its neighbors on either side, clipped to the array — the
// owner-computes storage of the message-passing programs, which never
// see the rest of the grid. Everything is addressed by *global* row, so
// loop bounds, parities and point counts read as in the sequential
// program. A halo of at least the row count keeps the whole array: the
// replicated arrays of compiler-generated serial code.
type Local[T pvm.Scalar] struct {
	name     string
	me       int
	bounds   []int // shared, read-only: block q is rows [bounds[q], bounds[q+1])
	cols     int
	slo, shi int // stored rows
	data     []T
}

// NewLocal allocates processor me's part of the array called name
// (the name is for diagnostics) under the row decomposition bounds
// (see BlockBounds), cols elements a row, zeroed.
func NewLocal[T pvm.Scalar](name string, me int, bounds []int, cols, halo int) *Local[T] {
	rows := bounds[len(bounds)-1]
	slo, shi := max(bounds[me]-halo, 0), min(bounds[me+1]+halo, rows)
	return &Local[T]{
		name: name, me: me, bounds: bounds, cols: cols,
		slo: slo, shi: shi, data: make([]T, (shi-slo)*cols),
	}
}

// Block returns the owned rows [lo, hi).
func (l *Local[T]) Block() (lo, hi int) { return l.bounds[l.me], l.bounds[l.me+1] }

// Stored returns the stored rows [lo, hi): the owned block and its halo.
func (l *Local[T]) Stored() (lo, hi int) { return l.slo, l.shi }

// Data returns the stored rows' elements; element 0 is the first
// element of row Stored().lo. Row kernels index it through that base.
func (l *Local[T]) Data() []T { return l.data }

// Rows returns the elements of global rows [glo, ghi). Rows this
// processor does not store are another processor's: asking for them is
// a bug in the caller's distribution, and panics rather than hand out
// a neighboring row.
func (l *Local[T]) Rows(glo, ghi int) []T {
	if glo < l.slo || ghi > l.shi || glo > ghi {
		panic(fmt.Sprintf("xhpf: array %q: rows [%d,%d) requested, processor %d stores [%d,%d)",
			l.name, glo, ghi, l.me, l.slo, l.shi))
	}
	return l.data[(glo-l.slo)*l.cols : (ghi-l.slo)*l.cols]
}

// Owned returns the elements of the owned rows — the block a result
// gather ships (pvm.GatherUntracked).
func (l *Local[T]) Owned() []T { return l.Rows(l.Block()) }

// Neighbors reports whether this processor trades halo rows with its
// lower and its upper neighbor: only when both blocks are non-empty.
// Empty blocks (trailing, when processors outnumber rows) neither send
// nor are sent to.
func (l *Local[T]) Neighbors() (down, up bool) {
	me, b := l.me, l.bounds
	if b[me] >= b[me+1] {
		return false, false
	}
	return me > 0 && b[me] > b[me-1], me+2 < len(b) && b[me+2] > b[me+1]
}

// ExchangeHalo performs the known-pattern nearest-neighbor exchange: the
// owned block's first and last width rows go to the lower and upper
// neighbor respectively, filling this processor's halo copies (see
// Neighbors).
func ExchangeHalo[T pvm.Scalar](x *XHPF, l *Local[T], width int) {
	defer x.collective(obs.CollHalo, stats.KindData)()
	x.seq += 2
	tag := 1<<13 + x.seq
	me, b := l.me, l.bounds
	lo, hi := l.Block()
	down, up := l.Neighbors()
	size := pvm.SizeOf[T]()
	if down {
		first := l.Rows(lo, min(lo+width, hi))
		x.chargeSection(len(first) * size)
		pvm.Send(x.pv, me-1, tag, first)
	}
	if up {
		last := l.Rows(max(hi-width, lo), hi)
		x.chargeSection(len(last) * size)
		pvm.Send(x.pv, me+1, tag, last)
	}
	if down {
		pvm.Recv(x.pv, me-1, tag, l.Rows(max(lo-width, 0), lo))
	}
	if up {
		pvm.Recv(x.pv, me+1, tag, l.Rows(hi, min(hi+width, b[x.n])))
	}
}
