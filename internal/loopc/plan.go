package loopc

import "sort"

// nestStep is the execution plan for one nest: how it runs and what
// communication the backend must insert before it.
type nestStep struct {
	info *nestInfo

	// Parallel nests: BLOCK row distribution over [Row.Lo, Row.Hi).
	parallel bool

	// halo lists, in array-declaration order, the arrays a parallel
	// nest reads beyond its own rows, with the exchange width in rows —
	// the maximum absolute row dependence distance of the reads.
	halo []haloNeed

	// Bcast lists, in array-declaration order, the arrays a serial nest
	// reads that some nest writes: under message passing the replicated
	// copies must be made current before replicated execution.
	bcast []string

	// readRange gives, per read array, the row-offset window
	// [minRowOff, maxRowOff] a parallel slice [lo,hi) must validate:
	// rows [lo+Min, hi+Max), clamped to the array.
	readRange map[string][2]int

	// FullRead marks read arrays whose rows cannot be derived from the
	// slice (a non-row row index; legal only for never-written arrays):
	// the DSM backend must validate the whole region. The
	// message-passing backend's replicated copies cover them by
	// construction.
	fullRead map[string]bool
}

// haloNeed is one halo exchange: array and width in rows.
type haloNeed struct {
	Array string
	width int
}

// planSteps runs the analyzer and the distribution pass: BLOCK row
// partitions for every DOALL/reduction nest, halo widths from the
// dependence distances, broadcasts for the replicated reads of serial
// nests.
func planSteps(p *Program) ([]*nestStep, error) {
	infos, err := analyze(p)
	if err != nil {
		return nil, err
	}
	written := map[string]bool{}
	for _, info := range infos {
		for name, u := range info.uses {
			if u.written {
				written[name] = true
			}
		}
	}
	declOrder := p.arrayIndex()
	steps := make([]*nestStep, len(infos))
	for i, info := range infos {
		st := &nestStep{info: info, readRange: map[string][2]int{}, fullRead: map[string]bool{}}
		steps[i] = st
		if info.class == classSerial {
			for name, u := range info.uses {
				if u.read && written[name] {
					st.bcast = append(st.bcast, name)
				}
			}
			sort.Slice(st.bcast, func(a, b int) bool {
				return declOrder[st.bcast[a]] < declOrder[st.bcast[b]]
			})
			continue
		}
		st.parallel = true
		for name, u := range info.uses {
			if !u.read {
				continue
			}
			st.readRange[name] = [2]int{u.minRowOff, u.maxRowOff}
			if u.nonRowRead {
				st.fullRead[name] = true
			}
			w := -u.minRowOff
			if u.maxRowOff > w {
				w = u.maxRowOff
			}
			if w > 0 {
				st.halo = append(st.halo, haloNeed{Array: name, width: w})
			}
		}
		sort.Slice(st.halo, func(a, b int) bool {
			return declOrder[st.halo[a].Array] < declOrder[st.halo[b].Array]
		})
	}
	return steps, nil
}
