package tmk

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Locks, per the paper §2.2: each lock has a statically assigned manager
// (lock id mod n) which records the most recent requester. Acquire
// requests go to the manager and are forwarded, if necessary, to the
// processor that last requested the lock. A release causes no
// communication: the grant is sent when (and only when) a queued request
// is waiting, and carries the consistency information (write notices) the
// acquirer lacks, per lazy release consistency.

type lockManagerState struct {
	lastRequester int
}

type lockHolderState struct {
	token   bool // the lock token is at this node
	inUse   bool // the application holds the lock
	pending *lockReqMsg
}

type lockReqMsg struct {
	lock      int
	requester int
	vc        []int32
}

type lockGrantMsg struct {
	batches []proto.NoticeBatch
}

// managerState lazily initializes manager-side state. The token starts
// at the manager's node.
func (nd *node) managerState(id int) *lockManagerState {
	ms, ok := nd.lockMgr[id]
	if !ok {
		ms = &lockManagerState{lastRequester: nd.id}
		nd.lockMgr[id] = ms
		hs := nd.holderState(id)
		hs.token = true
	}
	return ms
}

func (nd *node) holderState(id int) *lockHolderState {
	hs, ok := nd.lockHold[id]
	if !ok {
		hs = &lockHolderState{}
		nd.lockHold[id] = hs
	}
	return hs
}

// AcquireLock acquires lock id, applying the write notices piggybacked on
// the grant (the RC acquire).
func (tm *Tmk) AcquireLock(id int) {
	nd := tm.nd
	p := tm.p
	c := nd.sys.costs
	mgr := id % nd.sys.nprocs
	if tr := c.Trace; tr.Enabled() {
		tr.Instant(obs.EvLockRequest, p.ID(), int64(p.Now()), stats.KindLock, -1, int64(id))
		defer func() {
			tr.Instant(obs.EvLockGrant, p.ID(), int64(p.Now()), stats.KindLock, -1, int64(id))
		}()
	}

	if nd.id == mgr {
		// We are the manager: handle the request locally.
		ms := nd.managerState(id)
		last := ms.lastRequester
		ms.lastRequester = nd.id
		if last == nd.id {
			hs := nd.holderState(id)
			if !hs.token || hs.inUse {
				panic("tmk: lock chain corrupt: token lost")
			}
			hs.inUse = true // silent reacquire, zero messages
			p.Advance(c.LockWork)
			return
		}
		p.Advance(c.LockWork)
		req := lockReqMsg{lock: id, requester: nd.id, vc: vcCopy(nd.prot.VC())}
		p.Send(nd.sys.serverOf(last), tagLockForward+id, req, lockReqBytes+len(req.vc)*vcBytes, stats.KindLock)
	} else {
		req := lockReqMsg{lock: id, requester: nd.id, vc: vcCopy(nd.prot.VC())}
		p.Send(nd.sys.serverOf(mgr), tagLockReq+id, req, lockReqBytes+len(req.vc)*vcBytes, stats.KindLock)
	}
	m := p.Recv(sim.AnySrc, tagLockGrant+id)
	grant := m.Payload.(lockGrantMsg)
	nd.prot.ApplyBatches(grant.batches)
	hs := nd.holderState(id)
	hs.token = true
	hs.inUse = true
	p.Advance(c.LockWork)
}

// ReleaseLock releases lock id: an RC release (the open interval closes)
// with no communication unless a request is queued, in which case the
// grant travels with the consistency information the requester lacks.
func (tm *Tmk) ReleaseLock(id int) {
	nd := tm.nd
	p := tm.p
	hs := nd.holderState(id)
	if !hs.token || !hs.inUse {
		panic(fmt.Sprintf("tmk: release of lock %d not held", id))
	}
	nd.prot.Release(stats.KindLock)
	hs.inUse = false
	if hs.pending != nil {
		req := hs.pending
		hs.pending = nil
		hs.token = false
		nd.sendGrant(p, req)
	}
}

// sendGrant ships the lock token plus piggybacked consistency data to the
// requester's application process. Callable from either the application
// process (at release) or the server process (token already free).
func (nd *node) sendGrant(p *sim.Proc, req *lockReqMsg) {
	batches := nd.prot.BatchSince(nil, req.vc)
	bytes := grantHdr + proto.BatchBytes(batches)
	grant := lockGrantMsg{batches: batches}
	p.Send(req.requester, tagLockGrant+req.lock, grant, bytes, stats.KindLock)
}

// handleLockReq is the manager-side server logic.
func (nd *node) handleLockReq(p *sim.Proc, req lockReqMsg) {
	c := nd.sys.costs
	ms := nd.managerState(req.lock)
	last := ms.lastRequester
	ms.lastRequester = req.requester
	p.Advance(c.LockWork)
	if last == nd.id {
		nd.handleLockForward(p, req) // we are also the holder end of the chain
		return
	}
	p.Send(nd.sys.serverOf(last), tagLockForward+req.lock, req,
		lockReqBytes+len(req.vc)*vcBytes, stats.KindLock)
}

// handleLockForward is the holder-side server logic: grant immediately if
// the token sits here released; queue for the application's release if it
// is in use or if the grant to this node is itself still in flight (the
// manager forwards to the *last requester*, which may not hold the token
// yet).
func (nd *node) handleLockForward(p *sim.Proc, req lockReqMsg) {
	hs := nd.holderState(req.lock)
	if hs.pending != nil {
		panic("tmk: second pending lock request (chain invariant broken)")
	}
	if !hs.token || hs.inUse {
		r := req
		hs.pending = &r
		return
	}
	hs.token = false
	nd.sendGrant(p, &req)
}
