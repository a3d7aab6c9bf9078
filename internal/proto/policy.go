package proto

import (
	"fmt"
	"sort"
)

// Home placement is a *policy*, distinct from the home-based coherence
// *mechanism* (eager flushes, whole-page fetches): where a page's master
// copy lives decides where modified data travels, but not how. This file
// defines the pluggable homePolicy API and its three implementations:
//
//   - static: the original assignment — homes are fixed block-wise
//     within each region at allocation time and never move. Bit-for-bit
//     identical to the pre-policy HomeLRC (the golden traffic tables and
//     virtual times pin this).
//   - firsttouch: pages start on the static assignment but are claimed
//     by the first writer to fault on them; claims are arbitrated at the
//     next barrier (lowest node id wins a same-epoch tie) and broadcast
//     so every node agrees before the next release.
//   - adaptive: every flush is accounted per page and per writer at the
//     page's home; when one remote writer's share of a page's flush
//     bytes over the last adaptiveWindow barrier epochs crosses
//     AdaptiveShare, the home proposes migrating the page to that
//     writer. Hysteresis (a full window of history, a majority share,
//     and a post-move accounting reset) keeps pages whose dominant
//     writer alternates from ping-ponging.
//
// A policy instance is per node and purely local bookkeeping: it never
// sends messages and costs no virtual time. Directory *changes* travel
// through the synchronization layer — proposals ride barrier arrivals,
// the barrier manager arbitrates (MergeDirProposals), and the agreed
// updates ride the departures, so every node installs the same directory
// before any post-barrier release can flush. The home protocol's
// redirect/retry paths (home.go) cover the in-flight window where a
// server has not yet installed the epoch its clients already run.

// PolicyName identifies a home-placement policy of the home-based
// protocol. The homeless protocol has no homes and ignores it.
type PolicyName string

const (
	// StaticPolicy keeps the fixed block-wise assignment (the default).
	StaticPolicy PolicyName = "static"
	// FirstTouchPolicy homes a page at its first faulting writer.
	FirstTouchPolicy PolicyName = "firsttouch"
	// AdaptivePolicy migrates a page's home to its dominant writer.
	AdaptivePolicy PolicyName = "adaptive"
)

// PolicyNames lists the available home policies.
func PolicyNames() []PolicyName {
	return []PolicyName{StaticPolicy, FirstTouchPolicy, AdaptivePolicy}
}

// ParsePolicy resolves a policy name; the empty string means the
// default (static) policy.
func ParsePolicy(s string) (PolicyName, error) {
	switch s {
	case "", string(StaticPolicy):
		return StaticPolicy, nil
	case string(FirstTouchPolicy), "first-touch":
		return FirstTouchPolicy, nil
	case string(AdaptivePolicy):
		return AdaptivePolicy, nil
	}
	return "", fmt.Errorf("proto: unknown home policy %q (have static, firsttouch, adaptive)", s)
}

// Adaptive-policy hysteresis constants, exported so tests can reason
// about the trigger exactly.
const (
	// adaptiveWindow is the number of completed barrier epochs of flush
	// accounting a page needs before it may migrate (and the depth of
	// the per-page accounting ring).
	adaptiveWindow = 4
	// adaptiveShareNum/adaptiveShareDen is the flush-byte share a writer
	// must hold over the window to capture the page: 3/5 = 60%, so two
	// writers alternating epochs (50% each) never trigger a move.
	adaptiveShareNum = 3
	adaptiveShareDen = 5
)

// DirUpdate is one home-directory change: page Page is henceforth homed
// at node home. Updates are proposed by policies, arbitrated by the
// barrier manager, and installed identically on every node.
type DirUpdate struct {
	Page int32
	home int32
}

// DirUpdateBytes models the wire size of a directory-update list
// (piggybacked on barrier arrivals and departures, or carried by a
// stale-home NACK).
func DirUpdateBytes(us []DirUpdate) int { return len(us) * dirUpdateRecBytes }

// homePolicy decides where pages live. One instance exists per node,
// inside the home protocol; all methods are local bookkeeping (no
// messages, no virtual time). Every node's policy instance observes the
// same arbitrated update stream, so the directories never diverge
// between epochs.
type homePolicy interface {
	// Name returns the policy's identifier.
	Name() PolicyName
	// AddPages extends the directory with npages fresh pages on the
	// initial (static block-wise) assignment, identical on every node.
	AddPages(npages int)
	// homeOf returns the current home of page gp.
	homeOf(gp int32) int
	// noteWrite observes a local write touch of gp (writer side; feeds
	// first-touch claims).
	noteWrite(gp int32)
	// noteFlush observes a flush of bytes for gp from writer, received
	// at this node as gp's home (feeds adaptive accounting).
	noteFlush(gp int32, writer, bytes int)
	// Rebalance closes a barrier epoch and returns this node's proposed
	// directory updates, in ascending page order. The caller piggybacks
	// them on its barrier arrival for arbitration.
	Rebalance() []DirUpdate
	// apply installs arbitrated directory updates. Every node applies
	// the same list in the same epoch; it is also used to learn current
	// homes from a stale-home NACK.
	apply(us []DirUpdate)
}

// newHomePolicy builds a policy instance for one node. The name goes
// through ParsePolicy, so everything Spec.Validate accepts (including
// aliases) constructs.
func newHomePolicy(p PolicyName, nprocs, self int) homePolicy {
	name, err := ParsePolicy(string(p))
	if err != nil {
		panic(err.Error())
	}
	switch name {
	case StaticPolicy:
		return &staticPolicy{directory{nprocs: nprocs}}
	case FirstTouchPolicy:
		return &firstTouch{directory: directory{nprocs: nprocs}, self: self}
	default:
		return &adaptive{directory: directory{nprocs: nprocs}, self: self, acct: map[int32]*pageAcct{}}
	}
}

// directory is the shared page→home map. The initial assignment is
// block-wise within each region (page i of an npages region is homed on
// node i*nprocs/npages), matching the BLOCK data distribution every
// regular application uses so the common case writes self-homed pages.
type directory struct {
	nprocs int
	homes  []int32
}

func (d *directory) AddPages(npages int) {
	base := len(d.homes)
	d.homes = grow(d.homes, npages)
	for i := range npages {
		d.homes[base+i] = int32(i * d.nprocs / npages)
	}
}

func (d *directory) homeOf(gp int32) int { return int(d.homes[gp]) }

func (d *directory) apply(us []DirUpdate) {
	for _, u := range us {
		d.homes[u.Page] = u.home
	}
}

// staticPolicy: the directory never changes.
type staticPolicy struct{ directory }

func (*staticPolicy) Name() PolicyName          { return StaticPolicy }
func (*staticPolicy) noteWrite(int32)           {}
func (*staticPolicy) noteFlush(int32, int, int) {}
func (*staticPolicy) Rebalance() []DirUpdate    { return nil }

// firstTouch claims a page for the first writer that faults on it. A
// claim is proposed once; the barrier manager keeps the lowest node id
// among same-epoch claimants, and the broadcast marks the page claimed
// everywhere — including at the claimant that lost the tie.
type firstTouch struct {
	directory
	self    int
	claimed []bool  // page has an arbitrated first-touch owner
	mine    []bool  // this node already proposed a claim for the page
	fresh   []int32 // unclaimed pages first written this epoch, touch order
}

func (*firstTouch) Name() PolicyName { return FirstTouchPolicy }

func (ft *firstTouch) AddPages(npages int) {
	ft.directory.AddPages(npages)
	ft.claimed = grow(ft.claimed, npages)
	ft.mine = grow(ft.mine, npages)
}

func (ft *firstTouch) noteWrite(gp int32) {
	if ft.claimed[gp] || ft.mine[gp] {
		return
	}
	ft.mine[gp] = true
	ft.fresh = append(ft.fresh, gp)
}

func (*firstTouch) noteFlush(int32, int, int) {}

func (ft *firstTouch) Rebalance() []DirUpdate {
	if len(ft.fresh) == 0 {
		return nil
	}
	out := make([]DirUpdate, 0, len(ft.fresh))
	for _, gp := range ft.fresh {
		if ft.claimed[gp] {
			continue // lost an earlier arbitration in the meantime
		}
		out = append(out, DirUpdate{Page: gp, home: int32(ft.self)})
	}
	ft.fresh = ft.fresh[:0]
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

func (ft *firstTouch) apply(us []DirUpdate) {
	ft.directory.apply(us)
	for _, u := range us {
		ft.claimed[u.Page] = true
	}
}

// pageAcct is the adaptive policy's per-page flush accounting at the
// page's current home: a ring of per-writer byte counts for the last
// adaptiveWindow epochs plus the open epoch's counts.
type pageAcct struct {
	epochs int                     // completed epochs since (re)homed here
	ring   [adaptiveWindow][]int64 // per-writer bytes, one slot per epoch
	cur    []int64                 // open epoch's per-writer bytes
}

// adaptive migrates a page to the writer dominating its flush traffic.
// Accounting exists only at the page's current home — exactly the node
// that observes the flushes — so proposals never conflict. The home
// itself never appears as a writer (self-homed writes do not flush):
// migration chases the dominant *remote* writer, which is what turns
// flush traffic into local writes. Three hysteresis guards keep the
// directory from churning:
//
//   - a page needs a full window of history at its current home, and
//     loses it whenever it moves (fresh accounting at the new home);
//   - the dominant writer must hold an AdaptiveShare majority of the
//     window's flush bytes *and* have flushed in the closing epoch, so
//     alternating writers (50% each) never trigger and a one-time
//     burst (initialization) cannot capture a page it no longer
//     touches;
//   - a page the home itself wrote within the window never migrates
//     away — the home's writes generate no flushes, so without this
//     guard two nodes sharing a page would steal it back and forth.
type adaptive struct {
	directory
	self  int
	epoch int32 // completed accounting epochs
	acct  map[int32]*pageAcct
	selfW map[int32]int32 // last epoch this node wrote the page
}

func (*adaptive) Name() PolicyName { return AdaptivePolicy }

func (ad *adaptive) noteWrite(gp int32) {
	if ad.homeOf(gp) == ad.self {
		if ad.selfW == nil {
			ad.selfW = map[int32]int32{}
		}
		ad.selfW[gp] = ad.epoch
	}
}

func (ad *adaptive) noteFlush(gp int32, writer, bytes int) {
	pa := ad.acct[gp]
	if pa == nil {
		pa = &pageAcct{cur: make([]int64, ad.nprocs)}
		ad.acct[gp] = pa
	}
	pa.cur[writer] += int64(bytes)
}

// Rebalance rolls every tracked page's accounting ring and proposes a
// move for each page whose dominant writer crossed the share threshold
// over a full window. Pages with no flush traffic across the whole
// window are dropped from the accounting (their directory entry is
// fine where it is).
func (ad *adaptive) Rebalance() []DirUpdate {
	defer func() { ad.epoch++ }()
	if len(ad.acct) == 0 {
		return nil
	}
	pages := make([]int32, 0, len(ad.acct))
	for gp := range ad.acct {
		pages = append(pages, gp)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var out []DirUpdate
	for _, gp := range pages {
		pa := ad.acct[gp]
		slot := pa.epochs % adaptiveWindow
		pa.ring[slot] = pa.cur
		pa.cur = make([]int64, ad.nprocs)
		pa.epochs++
		if pa.epochs < adaptiveWindow {
			continue // hysteresis: a full window of history first
		}
		var total int64
		sums := make([]int64, ad.nprocs)
		for _, ep := range pa.ring {
			for q, b := range ep {
				sums[q] += b
				total += b
			}
		}
		if total == 0 {
			delete(ad.acct, gp) // quiesced: stop tracking
			continue
		}
		if last, ok := ad.selfW[gp]; ok && ad.epoch-last < adaptiveWindow {
			continue // the home writes this page itself: keep it
		}
		top := 0
		for q := 1; q < ad.nprocs; q++ {
			if sums[q] > sums[top] {
				top = q // ties keep the lowest id
			}
		}
		if top == ad.self || sums[top]*adaptiveShareDen < total*adaptiveShareNum {
			continue
		}
		if pa.ring[slot][top] == 0 {
			continue // dominant writer inactive this epoch: stale burst
		}
		out = append(out, DirUpdate{Page: gp, home: int32(top)})
		delete(ad.acct, gp) // the new home starts its own accounting
	}
	return out
}

// apply resets accounting for every repointed page: whichever node is
// the new home accumulates fresh history before the page may move
// again (the second half of the hysteresis).
func (ad *adaptive) apply(us []DirUpdate) {
	ad.directory.apply(us)
	for _, u := range us {
		delete(ad.acct, u.Page)
	}
}

// MergeDirProposals arbitrates the per-node directory proposals
// gathered at a barrier: iterating nodes in id order, the first
// proposal for a page wins (so a same-epoch first-touch tie goes to the
// lowest node id; adaptive proposals come only from a page's unique
// home and never collide). The result is sorted by page — every node
// applies the identical list.
func MergeDirProposals(perNode [][]DirUpdate) []DirUpdate {
	var out []DirUpdate
	seen := map[int32]bool{}
	for _, props := range perNode {
		for _, u := range props {
			if !seen[u.Page] {
				seen[u.Page] = true
				out = append(out, u)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}
