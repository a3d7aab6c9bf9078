package proto

import (
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want PolicyName
		ok   bool
	}{
		{"", StaticPolicy, true},
		{"static", StaticPolicy, true},
		{"firsttouch", FirstTouchPolicy, true},
		{"first-touch", FirstTouchPolicy, true},
		{"adaptive", AdaptivePolicy, true},
		{"roundrobin", "", false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = (%q, %v), want (%q, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
	for _, p := range PolicyNames() {
		if got, err := ParsePolicy(string(p)); err != nil || got != p {
			t.Errorf("PolicyNames entry %q does not parse to itself: (%q, %v)", p, got, err)
		}
	}
}

// TestInitialHomesMatchStaticBlocks pins the initial directory to the
// pre-policy block-wise assignment (page i of an npages region homed on
// node i*nprocs/npages) for every policy — the static policy's traffic
// goldens depend on it bit-for-bit.
func TestInitialHomesMatchStaticBlocks(t *testing.T) {
	const nprocs, npages = 4, 32
	for _, name := range PolicyNames() {
		pol := newHomePolicy(name, nprocs, 0)
		pol.AddPages(npages)
		pol.AddPages(npages) // a second region restarts the block map
		for i := 0; i < npages; i++ {
			want := i * nprocs / npages
			for _, gp := range []int32{int32(i), int32(npages + i)} {
				if got := pol.homeOf(gp); got != want {
					t.Fatalf("%s: homeOf(%d) = %d, want %d", name, gp, got, want)
				}
			}
		}
	}
}

func TestStaticPolicyNeverProposes(t *testing.T) {
	pol := newHomePolicy(StaticPolicy, 4, 1)
	pol.AddPages(8)
	for e := 0; e < 10; e++ {
		for gp := int32(0); gp < 8; gp++ {
			pol.noteWrite(gp)
			pol.noteFlush(gp, 3, 4096)
		}
		if props := pol.Rebalance(); len(props) != 0 {
			t.Fatalf("static policy proposed %v", props)
		}
	}
}

// TestFirstTouchClaims: a page is claimed by its first writer, the
// claim is proposed exactly once, and an applied arbitration settles
// the page everywhere — including at a claimant that lost the tie.
func TestFirstTouchClaims(t *testing.T) {
	pol := newHomePolicy(FirstTouchPolicy, 4, 2).(*firstTouch)
	pol.AddPages(8)
	pol.noteWrite(5)
	pol.noteWrite(5) // same epoch: deduplicated
	props := pol.Rebalance()
	if len(props) != 1 || props[0] != (DirUpdate{Page: 5, home: 2}) {
		t.Fatalf("claims = %v, want [{5 2}]", props)
	}
	if props := pol.Rebalance(); len(props) != 0 {
		t.Fatalf("re-proposed already-sent claim: %v", props)
	}
	// Arbitration went to node 1: the page is claimed and never
	// re-proposed, and the directory follows the broadcast.
	pol.apply([]DirUpdate{{Page: 5, home: 1}})
	if pol.homeOf(5) != 1 {
		t.Fatalf("homeOf(5) = %d after arbitration, want 1", pol.homeOf(5))
	}
	pol.noteWrite(5)
	if props := pol.Rebalance(); len(props) != 0 {
		t.Fatalf("claimed page re-proposed: %v", props)
	}
}

// TestMergeDirProposals: first proposal per page in node order wins (a
// same-epoch first-touch tie goes to the lowest node id) and the merged
// list is page-sorted.
func TestMergeDirProposals(t *testing.T) {
	merged := MergeDirProposals([][]DirUpdate{
		1: {{Page: 7, home: 1}, {Page: 3, home: 1}},
		2: {{Page: 3, home: 2}, {Page: 9, home: 2}},
		3: {{Page: 7, home: 3}},
	})
	want := []DirUpdate{{Page: 3, home: 1}, {Page: 7, home: 1}, {Page: 9, home: 2}}
	if len(merged) != len(want) {
		t.Fatalf("merged = %v, want %v", merged, want)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged = %v, want %v", merged, want)
		}
	}
}

// rebalanceEpoch drives one accounting epoch of an adaptive policy:
// per-writer flush bytes for one page, then the epoch close.
func rebalanceEpoch(ad *adaptive, gp int32, bytesByWriter map[int]int) []DirUpdate {
	for q, b := range bytesByWriter {
		ad.noteFlush(gp, q, b)
	}
	return ad.Rebalance()
}

// TestAdaptiveMigratesToDominantWriter: a steady single remote writer
// captures the page after exactly adaptiveWindow epochs, and the
// proposal resets the accounting.
func TestAdaptiveMigratesToDominantWriter(t *testing.T) {
	ad := newHomePolicy(AdaptivePolicy, 4, 0).(*adaptive)
	ad.AddPages(4)
	for e := 1; e < adaptiveWindow; e++ {
		if props := rebalanceEpoch(ad, 0, map[int]int{3: 4096}); len(props) != 0 {
			t.Fatalf("epoch %d: proposed %v before a full window", e, props)
		}
	}
	props := rebalanceEpoch(ad, 0, map[int]int{3: 4096})
	if len(props) != 1 || props[0] != (DirUpdate{Page: 0, home: 3}) {
		t.Fatalf("full-window proposals = %v, want [{0 3}]", props)
	}
	// The page needs a fresh window at its new home before moving again.
	ad.apply(props)
	for e := 0; e < adaptiveWindow-1; e++ {
		if props := rebalanceEpoch(ad, 0, map[int]int{2: 4096}); len(props) != 0 {
			t.Fatalf("post-move epoch %d: proposed %v without fresh history", e, props)
		}
	}
}

// TestAdaptiveHysteresisPingPong: a page whose dominant writer
// alternates every epoch holds a 50% share, below the 60% migration
// threshold, so the page never moves — the migration count stays at
// zero no matter how long the pattern runs.
func TestAdaptiveHysteresisPingPong(t *testing.T) {
	ad := newHomePolicy(AdaptivePolicy, 4, 0).(*adaptive)
	ad.AddPages(4)
	moves := 0
	for e := 0; e < 50; e++ {
		writer := 2 + e%2 // writers 2 and 3 alternate epochs
		props := rebalanceEpoch(ad, 1, map[int]int{writer: 4096})
		moves += len(props)
	}
	if moves != 0 {
		t.Fatalf("alternating writers moved the page %d times, want 0", moves)
	}
}

// TestAdaptiveShareThreshold: a 3/4 share triggers, a 1/2 share does
// not (the threshold is 3/5).
func TestAdaptiveShareThreshold(t *testing.T) {
	ad := newHomePolicy(AdaptivePolicy, 4, 0).(*adaptive)
	ad.AddPages(4)
	for e := 0; e < adaptiveWindow-1; e++ {
		rebalanceEpoch(ad, 2, map[int]int{1: 3 * 1024, 2: 1024})
	}
	props := rebalanceEpoch(ad, 2, map[int]int{1: 3 * 1024, 2: 1024})
	if len(props) != 1 || props[0] != (DirUpdate{Page: 2, home: 1}) {
		t.Fatalf("75%% share proposals = %v, want [{2 1}]", props)
	}
}

// TestAdaptiveSelfWriteGuard: a page the home itself keeps writing
// never migrates away, however dominant the remote flusher looks —
// without the guard two nodes sharing a page would steal it back and
// forth (the home's own writes generate no flushes).
func TestAdaptiveSelfWriteGuard(t *testing.T) {
	ad := newHomePolicy(AdaptivePolicy, 4, 0).(*adaptive)
	ad.AddPages(4)
	for e := 0; e < 3*adaptiveWindow; e++ {
		ad.noteWrite(0) // the home writes the page every epoch
		if props := rebalanceEpoch(ad, 0, map[int]int{3: 8192}); len(props) != 0 {
			t.Fatalf("epoch %d: self-written page proposed away: %v", e, props)
		}
	}
	// Once the home stops writing for a full window, the dominant
	// remote writer may take the page.
	var props []DirUpdate
	for e := 0; e < adaptiveWindow+1 && len(props) == 0; e++ {
		props = rebalanceEpoch(ad, 0, map[int]int{3: 8192})
	}
	if len(props) != 1 || props[0] != (DirUpdate{Page: 0, home: 3}) {
		t.Fatalf("quiesced home kept the page: %v", props)
	}
}

// TestAdaptiveStaleBurstGuard: a one-time flush burst (initialization)
// cannot capture a page once its writer goes quiet — the dominant
// writer must have flushed in the closing epoch.
func TestAdaptiveStaleBurstGuard(t *testing.T) {
	ad := newHomePolicy(AdaptivePolicy, 4, 0).(*adaptive)
	ad.AddPages(4)
	rebalanceEpoch(ad, 0, map[int]int{1: 1 << 20}) // epoch 1: huge burst
	for e := 0; e < 2*adaptiveWindow; e++ {
		if props := rebalanceEpoch(ad, 0, nil); len(props) != 0 {
			t.Fatalf("quiet epoch %d: stale burst captured the page: %v", e, props)
		}
	}
}
