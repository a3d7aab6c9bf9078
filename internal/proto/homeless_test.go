package proto

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestDiffReplyKeepsItsRecords: a diff reply carries a writer's chain
// tail without copying it. Node 1 asks writer 0 for pages 0 and 1 in
// one request, and holds the reply (page 0's three records, then page
// 1's one) unapplied while the writer extracts more records of page 0,
// past GCThreshold, so the chain grows into its spare capacity and is
// squashed. The reply must keep the records it had when it was sent:
// an unclipped tail would have let page 1's record be appended into
// page 0's spare capacity, where the writer's next record overwrites
// it.
func TestDiffReplyKeepsItsRecords(t *testing.T) {
	const n, npages = 2, 2
	const holding, done = 2, 3
	nodes := newTestNodes(HomelessLRC, n, npages, "")
	writer := nodes[0].prot.(*homeless)
	// extract writes v to page gp in an interval of its own and makes
	// the record of that write.
	extract := func(p *sim.Proc, gp int32, v byte) {
		nodes[0].pages[gp][0] = v
		writer.WriteTouch(gp)
		writer.Release(stats.KindBarrier)
		writer.extractPending(gp, p)
	}
	var sent, held []*diffRec
	bodies := []func(p *sim.Proc){
		func(p *sim.Proc) {
			for v := byte(1); v <= 3; v++ {
				extract(p, 0, v)
			}
			extract(p, 1, 0x51)
			p.Send(1, done, writer.OwnBatch(0), 0, stats.KindShutdown)
			p.Recv(1, holding)
			for v := byte(4); v < 4+GCThreshold-2; v++ { // 33 records: one squash
				extract(p, 0, v)
			}
			if len(writer.recs[0]) != 1 {
				t.Errorf("page 0's chain holds %d records, want 1 after a squash", len(writer.recs[0]))
			}
			p.Send(1, done, nil, 0, stats.KindShutdown)
			for s := 0; s < n; s++ {
				p.Send(n+s, testExitTag, nil, 0, stats.KindShutdown)
			}
		},
		func(p *sim.Proc) {
			reader := nodes[1].prot.(*homeless)
			reader.ApplyBatches([]NoticeBatch{p.Recv(0, done).Payload.(NoticeBatch)})
			req := &diffRequest{from: 1, pages: []pageAsk{{page: 0}, {page: 1}}}
			p.Send(n, tagDiffReq, req, diffReqHdr+2*diffReqPerPage, stats.KindDiffReq)
			held = p.Recv(n, tagDiffResp).Payload.(*diffResponse).recs
			sent = slices.Clone(held)
			p.Send(0, holding, nil, 0, stats.KindShutdown)
			p.Recv(0, done)
			for _, r := range held {
				reader.applyRec(r, 0)
			}
		},
	}
	runTestCluster(t, nodes, bodies)

	if len(sent) != 4 || sent[3].page != 1 {
		t.Fatalf("reply held %d records, want page 0's three and page 1's one", len(sent))
	}
	if !slices.Equal(held, sent) {
		t.Errorf("the reply's records changed while it was held: page %d seq %d where page %d seq %d was",
			held[3].page, held[3].seq, sent[3].page, sent[3].seq)
	}
	if got := [2]byte{nodes[1].pages[0][0], nodes[1].pages[1][0]}; got != [2]byte{3, 0x51} {
		t.Errorf("requester's pages start %#v, want page 0 at 3 and page 1 at 0x51", got)
	}
}
