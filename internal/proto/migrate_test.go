package proto

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// White-box tests of the home protocol's stale-home NACK paths: a flush
// racing a directory update. The synchronization layer normally
// installs every directory update as it leaves the deciding barrier, so
// a writer never targets a stale home and a home is never more than one
// epoch behind its clients — these tests construct exactly those
// windows by driving protocol instances over a raw simulator cluster
// with a byte-array page host, without the tmk layer on top.

const (
	testPageBytes = 64
	testExitTag   = 1
)

// testNode is one simulated DSM node for the white-box tests: a
// protocol instance over simple byte-array pages.
type testNode struct {
	id     int
	nprocs int
	app    *sim.Proc
	pages  [][]byte
	twins  map[int32][]byte
	log    [][]IntervalRec
	prot   Protocol
	trail  *[]string // every node's diff applications and returns, in host order
}

// newTestNodes makes n nodes of protocol name over one shared interval
// log, as a run has.
func newTestNodes(name Name, n, npages int, policy PolicyName) []*testNode {
	log, trail := make([][]IntervalRec, n), new([]string)
	nodes := make([]*testNode, n)
	for id := range nodes {
		nd := &testNode{id: id, nprocs: n, twins: map[int32][]byte{}, log: log, trail: trail}
		for i := 0; i < npages; i++ {
			nd.pages = append(nd.pages, make([]byte, testPageBytes))
		}
		nd.prot = New(name, policy, (*testHost)(nd))
		nd.prot.AddPages(npages)
		nodes[id] = nd
	}
	return nodes
}

func (n *testNode) home() *home { return n.prot.(*home) }

// poisonByte is what a returned diff buffer is overwritten with, so a
// payload read after its return shows up in the page it lands in.
const poisonByte = 0xDE

// testHost adapts a testNode to the Host interface. Diffs and
// snapshots are whole-page byte copies.
type testHost testNode

func (h *testHost) NodeID() int                  { return h.id }
func (h *testHost) NProcs() int                  { return h.nprocs }
func (h *testHost) AppProc() *sim.Proc           { return h.app }
func (h *testHost) ServerOf(node int) int        { return h.nprocs + node }
func (h *testHost) Costs() model.Costs           { return model.SP2() }
func (h *testHost) IntervalLog() [][]IntervalRec { return h.log }

func (h *testHost) MakeTwin(gp int32) {
	tw := make([]byte, testPageBytes)
	copy(tw, h.pages[gp])
	h.twins[gp] = tw
}

func (h *testHost) ExtractDiff(gp int32, keepTwin bool) (any, int) {
	if !keepTwin {
		delete(h.twins, gp)
	}
	out := make([]byte, testPageBytes)
	copy(out, h.pages[gp])
	return out, testPageBytes
}

func (h *testHost) LendDiff(gp int32) (any, int) { return h.ExtractDiff(gp, false) }

func (h *testHost) ReturnDiff(gp int32, payload any) {
	buf := payload.([]byte)
	for i := range buf {
		buf[i] = poisonByte
	}
	*h.trail = append(*h.trail, fmt.Sprintf("node %d returns page %d", h.id, gp))
}

func (h *testHost) ApplyDiff(gp int32, payload any) {
	copy(h.pages[gp], payload.([]byte))
	*h.trail = append(*h.trail, fmt.Sprintf("node %d applies page %d", h.id, gp))
}

func (h *testHost) MergeDiffs(gp int32, payloads []any) (any, int) {
	return bytes.Clone(payloads[len(payloads)-1].([]byte)), testPageBytes
}

func (h *testHost) SnapshotPage(gp int32) (any, int) {
	out := make([]byte, testPageBytes)
	copy(out, h.pages[gp])
	return out, testPageBytes
}

func (h *testHost) InstallPage(gp int32, payload any) { copy(h.pages[gp], payload.([]byte)) }

// runTestCluster runs one scripted application body per node plus the
// standard protocol server loop. Bodies run on procs 0..n-1; servers on
// n..2n-1 until they receive testExitTag.
func runTestCluster(t *testing.T, nodes []*testNode, bodies []func(p *sim.Proc)) {
	t.Helper()
	n := len(nodes)
	cl := sim.New(model.SP2().SimConfigNodes(2*n, n))
	err := cl.Run(func(p *sim.Proc) {
		if p.ID() < n {
			nodes[p.ID()].app = p
			bodies[p.ID()](p)
			return
		}
		nd := nodes[p.ID()-n]
		for {
			m := p.Recv(sim.AnySrc, sim.AnyTag)
			if m.Tag == testExitTag {
				return
			}
			if !nd.prot.HandleServer(p, m) {
				t.Errorf("node %d server: unexpected message tag %d", nd.id, m.Tag)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlushRedirectAfterMigration: the directory moved a page from node
// 1 to node 2, but the writer (node 0) releases under the old epoch.
// The stale home NACKs the flush with its newer directory; the writer
// learns the mapping, re-sends to the new home, and the release
// completes with the new home holding the data.
func TestFlushRedirectAfterMigration(t *testing.T) {
	const n, npages = 3, 3
	nodes := newTestNodes(HomeLRC, n, npages, StaticPolicy)
	// Page 1 (initially homed at node 1) moves to node 2. Nodes 1 and 2
	// install the update; writer node 0 does not — the in-flight window
	// the barrier piggyback normally closes.
	move := []DirUpdate{{Page: 1, Home: 2}}
	nodes[1].prot.ApplyDirectory(move, stats.KindBarrier)
	nodes[2].prot.ApplyDirectory(move, stats.KindBarrier)
	if got := nodes[2].prot.Counters().Migrations; got != 1 {
		t.Fatalf("new home migrations = %d, want 1", got)
	}

	payload := byte(0xA5)
	bodies := []func(p *sim.Proc){
		func(p *sim.Proc) {
			hb := nodes[0].home()
			nodes[0].pages[1][0] = payload
			hb.WriteTouch(1)
			hb.Release(stats.KindBarrier)
			for s := 0; s < n; s++ {
				p.Send(n+s, testExitTag, nil, 0, stats.KindShutdown)
			}
		},
		func(p *sim.Proc) {},
		func(p *sim.Proc) {},
	}
	runTestCluster(t, nodes, bodies)

	if got := nodes[1].prot.Counters().StaleForwards; got != 1 {
		t.Errorf("old home stale forwards = %d, want 1", got)
	}
	if got := nodes[0].prot.Counters().RedirectedFlushBytes; got <= 0 {
		t.Errorf("writer redirected flush bytes = %d, want > 0", got)
	}
	if got := nodes[0].home().homeOf(1); got != 2 {
		t.Errorf("writer learned home %d for page 1, want 2", got)
	}
	if nodes[2].pages[1][0] != payload {
		t.Errorf("new home's copy = %#x, want %#x (flush lost)", nodes[2].pages[1][0], payload)
	}
	if nodes[1].pages[1][0] == payload {
		t.Errorf("old home applied a flush for a page it no longer homes")
	}
	if got := nodes[2].prot.Counters().DiffsApplied; got != 1 {
		t.Errorf("new home diffs applied = %d, want 1", got)
	}
	checkTrail(t, nodes, "node 2 applies page 1", "node 0 returns page 1")
}

// checkTrail compares the nodes' shared trail of diff applications and
// returns with want.
func checkTrail(t *testing.T, nodes []*testNode, want ...string) {
	t.Helper()
	if got := *nodes[0].trail; !slices.Equal(got, want) {
		t.Errorf("diff trail:\n  %q\nwant\n  %q", got, want)
	}
}

// TestFlushRetryWhileHomeLags: the writer has installed a directory
// epoch the new home has not processed yet (its application process is
// still short of the departure). The new home NACKs with its *older*
// directory; the writer must not follow it backwards — it retries the
// same home until the epoch catches up.
func TestFlushRetryWhileHomeLags(t *testing.T) {
	const n, npages = 3, 3
	nodes := newTestNodes(HomeLRC, n, npages, StaticPolicy)
	move := []DirUpdate{{Page: 1, Home: 2}}
	// Only the writer (and the old home) installed the update; the new
	// home (node 2) lags and applies mid-run.
	nodes[0].prot.ApplyDirectory(move, stats.KindBarrier)
	nodes[1].prot.ApplyDirectory(move, stats.KindBarrier)

	payload := byte(0x5A)
	bodies := []func(p *sim.Proc){
		func(p *sim.Proc) {
			hb := nodes[0].home()
			nodes[0].pages[1][0] = payload
			hb.WriteTouch(1)
			hb.Release(stats.KindBarrier) // blocks until node 2 accepts
			for s := 0; s < n; s++ {
				p.Send(n+s, testExitTag, nil, 0, stats.KindShutdown)
			}
		},
		func(p *sim.Proc) {},
		func(p *sim.Proc) {
			// The lagging departure: the update installs two
			// milliseconds into the run, while the writer's flush is
			// already bouncing.
			p.Advance(2 * sim.Millisecond)
			nodes[2].prot.ApplyDirectory(move, stats.KindBarrier)
		},
	}
	runTestCluster(t, nodes, bodies)

	if got := nodes[2].prot.Counters().StaleForwards; got < 1 {
		t.Errorf("lagging home stale forwards = %d, want >= 1", got)
	}
	if got := nodes[0].home().homeOf(1); got != 2 {
		t.Errorf("writer's directory rolled back to %d, want 2", got)
	}
	if nodes[2].pages[1][0] != payload {
		t.Errorf("new home's copy = %#x, want %#x (flush lost)", nodes[2].pages[1][0], payload)
	}
	if got := nodes[0].prot.Counters().RedirectedFlushBytes; got <= 0 {
		t.Errorf("writer redirected flush bytes = %d, want > 0", got)
	}
	if !bytes.Equal(nodes[1].pages[1], make([]byte, testPageBytes)) {
		t.Errorf("old home applied a flush for a page it no longer homes")
	}
	// The NACKed attempts applied nothing; the buffer went back once,
	// after the accepted one.
	checkTrail(t, nodes, "node 2 applies page 1", "node 0 returns page 1")
}

// TestStashedFlushOutlivesTheWritersBuffer: a flush reaches a new home
// while its migration pull is in flight, so the home applies the diff
// and stashes it for re-application over the pulled snapshot. The
// writer hands its lent buffer back (poisoned here) at the ack, before
// the snapshot arrives; the stash must hold its own copy, or the page
// ends up poisoned.
func TestStashedFlushOutlivesTheWritersBuffer(t *testing.T) {
	const n, npages = 3, 3
	const doneTag = 2
	nodes := newTestNodes(HomeLRC, n, npages, StaticPolicy)
	move := []DirUpdate{{Page: 1, Home: 2}} // away from its static home, node 1
	pullAt := 2 * sim.Millisecond
	var first []NoticeBatch // node 0's first interval, as a barrier would carry it
	bodies := []func(p *sim.Proc){
		func(p *sim.Proc) {
			hb := nodes[0].home()
			nodes[0].pages[1][0] = 0x11
			hb.WriteTouch(1)
			hb.Release(stats.KindBarrier) // to node 1
			first = []NoticeBatch{hb.OwnBatch(0)}
			// The second release flushes to the new home just after its
			// pull has started, and the ack returns before the pull's
			// reply can.
			p.Advance(pullAt - p.Now() - 150*sim.Microsecond)
			hb.ApplyDirectory(move, stats.KindBarrier)
			nodes[0].pages[1][1] = 0x22
			hb.WriteTouch(1)
			hb.Release(stats.KindBarrier) // to node 2
			p.Recv(2, doneTag)
			for s := 0; s < n; s++ {
				p.Send(n+s, testExitTag, nil, 0, stats.KindShutdown)
			}
		},
		func(p *sim.Proc) {},
		func(p *sim.Proc) {
			p.Advance(pullAt)
			nodes[2].prot.ApplyBatches(first) // page 1 now pending: pull it
			nodes[2].prot.ApplyDirectory(move, stats.KindBarrier)
			p.Send(0, doneTag, nil, 0, stats.KindShutdown)
		},
	}
	runTestCluster(t, nodes, bodies)

	if got, want := nodes[2].pages[1][:3], []byte{0x11, 0x22, 0}; !bytes.Equal(got, want) {
		t.Errorf("new home's copy starts %#v, want %#v", got, want)
	}
	if got := nodes[2].prot.Counters().Migrations; got != 1 {
		t.Errorf("new home migrations = %d, want 1", got)
	}
	checkTrail(t, nodes,
		"node 1 applies page 1", "node 0 returns page 1", // the first flush
		"node 2 applies page 1", "node 0 returns page 1", // the second, stashed
		"node 2 applies page 1") // the stash, over the pulled snapshot
}
