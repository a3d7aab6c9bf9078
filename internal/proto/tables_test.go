package proto

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// checkTables walks the per-page tables of one run's protocol instances,
// given in node order after the run has ended, and returns the first
// broken invariant:
//
//   - notice[q] ≤ vc[q] for every page and writer q: a node has noticed
//     no interval it has not incorporated, since ApplyBatches raises
//     page notices only to the intervals of the batch it incorporates;
//   - under the homeless protocol, appliedSeq[q] ≤ writer q's own recSeq
//     for the page: a node has applied no record of q's chain that q has
//     not made.
func checkTables(nodes []Protocol) error {
	cores := make([]*lrcCore, len(nodes))
	for id, p := range nodes {
		cores[id] = coreOf(p)
		if lc := cores[id]; lc.id != id || lc.nprocs != len(nodes) || len(lc.pages) != len(cores[0].pages) {
			return fmt.Errorf("node %d of %d: the instance is node %d of %d with %d pages, not one of this run",
				id, len(nodes), lc.id, lc.nprocs, len(lc.pages))
		}
	}
	for id, lc := range cores {
		hl, isHomeless := nodes[id].(*homeless)
		for gp := range int32(len(lc.pages)) {
			notice, _ := lc.vectors(gp)
			for q, iv := range notice {
				if iv > lc.vc[q] {
					return fmt.Errorf("node %d page %d: notice[%d] = %d past vc[%d] = %d", id, gp, q, iv, q, lc.vc[q])
				}
			}
			if !isHomeless {
				continue
			}
			for q, seq := range hl.appliedSeq(gp) {
				if own := nodes[q].(*homeless).recSeq[gp]; seq > own {
					return fmt.Errorf("node %d page %d: appliedSeq[%d] = %d past writer %d's recSeq %d", id, gp, q, seq, q, own)
				}
			}
		}
	}
	return nil
}

// coreOf returns a protocol instance's LRC core.
func coreOf(p Protocol) *lrcCore {
	switch p := p.(type) {
	case *homeless:
		return &p.lrcCore
	case *home:
		return &p.lrcCore
	}
	panic(fmt.Sprintf("proto: no LRC core in %T", p))
}

// WatchRuns makes New hand every instance it creates to a list until
// the returned function is called, which returns the list. Test-only,
// for the external tests in this directory, which run whole
// applications.
func WatchRuns() (stop func() []Protocol) {
	var mu sync.Mutex
	var made []Protocol
	created = func(p Protocol) {
		mu.Lock()
		made = append(made, p)
		mu.Unlock()
	}
	return func() []Protocol {
		created = nil
		return made
	}
}

// CheckTables is checkTables, for the external tests.
var CheckTables = checkTables

// TestCheckTablesFindsASeededFault: the walk passes a state the
// protocols produce and names the node, page and writer of a state they
// must not — here, what an ApplyBatches that raised a page's notice past
// the batch it incorporated would leave, and a homeless appliedSeq ahead
// of the writer's own record chain.
func TestCheckTablesFindsASeededFault(t *testing.T) {
	for _, name := range Names() {
		log := make([][]IntervalRec, 2)
		nodes := make([]Protocol, 2)
		for id := range nodes {
			nodes[id] = New(name, StaticPolicy, (*testHost)(&testNode{id: id, nprocs: 2, log: log}))
			nodes[id].AddPages(3)
		}
		log[0] = []IntervalRec{{Interval: 1, Pages: []int32{0, 1}}, {Interval: 2, Pages: []int32{1}}}
		nodes[1].ApplyBatches([]NoticeBatch{{Proc: 0, Intervals: log[0]}})
		if err := checkTables(nodes); err != nil {
			t.Fatalf("%s: %v on a state ApplyBatches left", name, err)
		}
		notice, _ := coreOf(nodes[1]).vectors(1)
		notice[0]++ // the seeded fault: one interval past the batch
		want := "node 1 page 1: notice[0] = 3 past vc[0] = 2"
		if err := checkTables(nodes); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: walk after the seeded fault returned %v, want %q", name, err, want)
		}
		notice[0]--
		hl, ok := nodes[1].(*homeless)
		if !ok {
			continue
		}
		hl.appliedSeq(2)[0] = 1 // writer 0 has made no record of page 2
		want = "node 1 page 2: appliedSeq[0] = 1 past writer 0's recSeq 0"
		if err := checkTables(nodes); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: walk after the seeded fault returned %v, want %q", name, err, want)
		}
	}
}
