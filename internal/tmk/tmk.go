package tmk

import (
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Tmk is the per-process handle to the DSM system: the equivalent of the
// TreadMarks API a program is linked against. One Tmk exists per
// application process; it must only be used from that process.
type Tmk struct {
	p   *sim.Proc
	nd  *node
	sys *System
}

// ID returns this process's id in [0, NProcs).
func (tm *Tmk) ID() int { return tm.nd.id }

// NProcs returns the number of DSM processes.
func (tm *Tmk) NProcs() int { return tm.sys.nprocs }

// Advance charges virtual compute time to this process.
func (tm *Tmk) Advance(d sim.Time) { tm.p.Advance(d) }

// Now returns this process's virtual clock.
func (tm *Tmk) Now() sim.Time { return tm.p.Now() }

// Proc exposes the simulator process, for runtimes layered on TreadMarks
// (the SPF fork-join runtime sends its own control messages).
func (tm *Tmk) Proc() *sim.Proc { return tm.p }

// System returns the owning system.
func (tm *Tmk) System() *System { return tm.sys }

// Protocol returns the coherence protocol this system runs.
func (tm *Tmk) Protocol() proto.Name { return tm.sys.protocol }

// BarrierSilent is a full barrier whose messages are recorded under the
// untracked (shutdown) category. The measurement harness uses it for
// timed-region boundaries so that Table 2/3 traffic totals contain only
// application traffic.
func (tm *Tmk) BarrierSilent() {
	tm.barrierReduce(nil, nil, stats.KindShutdown)
}

// shutdown quiesces the system and stops this node's request server.
func (tm *Tmk) shutdown() {
	tm.barrierReduce(nil, nil, stats.KindShutdown)
	tm.p.Send(tm.sys.serverOf(tm.nd.id), tagExit, nil, 0, stats.KindShutdown)
}

// serve is the request-server loop: the stand-in for TreadMarks' SIGIO
// handler. It services lock traffic and the coherence protocol's
// requests (diff fetches, home flushes, page fetches) while the node's
// application process computes.
func (nd *node) serve(p *sim.Proc) {
	c := nd.sys.costs
	for {
		m := p.Recv(sim.AnySrc, sim.AnyTag)
		switch {
		case m.Tag == tagExit:
			return
		case m.Tag >= tagLockReq && m.Tag < tagLockReq+(1<<16):
			p.Advance(c.HandlerWake)
			nd.handleLockReq(p, m.Payload.(lockReqMsg))
		case m.Tag >= tagLockForward && m.Tag < tagLockForward+(1<<16):
			p.Advance(c.HandlerWake)
			nd.handleLockForward(p, m.Payload.(lockReqMsg))
		default:
			if !nd.prot.HandleServer(p, m) {
				panic("tmk: server received unexpected message")
			}
		}
	}
}
