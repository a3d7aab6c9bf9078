// Package stats accumulates message and data-volume statistics for a
// simulated cluster run. The paper reports, for every application and
// version, the total number of messages and the total kilobytes of data
// exchanged during the timed portion of the execution (Tables 2 and 3);
// this package provides those totals broken down by traffic category so
// the harness can also explain *why* a version communicates.
package stats

import (
	"fmt"
	"strings"
)

// Kind classifies a message for accounting purposes.
type Kind uint8

const (
	// KindData is application payload carried by explicit message passing
	// (PVMe sends, XHPF shifts and broadcasts).
	KindData Kind = iota
	// KindBarrier is barrier arrival/departure traffic, including the
	// split arrival/departure operations of the improved compiler
	// interface (paper §2.3).
	KindBarrier
	// KindLock is lock acquire/forward/grant traffic.
	KindLock
	// KindDiffReq is a request for the diffs of a page.
	KindDiffReq
	// KindDiff is a reply carrying one or more diffs.
	KindDiff
	// KindPageReq is a request for a full page copy.
	KindPageReq
	// KindPage is a reply carrying a full page.
	KindPage
	// KindControl is miscellaneous runtime control traffic (fork-join
	// loop dispatch under the unimproved interface, XHPF bookkeeping).
	KindControl
	// KindShutdown is end-of-run teardown traffic. It is *excluded* from
	// the totals because the paper's counters stop at the final barrier.
	KindShutdown
	numKinds
)

var kindNames = [numKinds]string{
	"data", "barrier", "lock", "diffreq", "diff", "pagereq", "page",
	"control", "shutdown",
}

// String returns the lower-case category name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// counted reports whether messages of this kind contribute to the
// Table 2/3 totals.
func (k Kind) counted() bool { return k != KindShutdown }

// QueueResource identifies the contention resource that bound a queued
// message: the resource whose busy-until time set the transfer's start.
type QueueResource uint8

const (
	// QueueOut is the sending node's outgoing NIC link.
	QueueOut QueueResource = iota
	// QueueIn is the receiving node's incoming NIC link.
	QueueIn
	// QueueBackplane is the shared switch backplane.
	QueueBackplane
	numQueueResources
)

var queueResourceNames = [numQueueResources]string{"out", "in", "backplane"}

// String returns the lower-case resource name.
func (r QueueResource) String() string {
	if int(r) < len(queueResourceNames) {
		return queueResourceNames[r]
	}
	return fmt.Sprintf("resource(%d)", uint8(r))
}

// Stats holds per-kind message counts and byte totals, plus the
// contention model's queueing-delay totals. It counts what the network
// carried; where each node's time went is package obs's attribution.
// The zero value is ready to use. It is safe for single-threaded use
// only; the simulator's scheduler serializes all access during a run.
type Stats struct {
	Msgs  [numKinds]int64
	Bytes [numKinds]int64

	// QueueNanos is the virtual time messages spent waiting for a busy
	// NIC link or backplane before transmission. Zero when contention
	// modeling is off.
	QueueNanos int64
	// QueuedMsgs counts the messages that waited at all.
	QueuedMsgs int64
	// queueResNanos splits the queueing delay by the binding resource —
	// the one whose busy-until time the transfer actually waited on. A
	// broadcast storm shows up on the sender's out link; a gather's root
	// congestion shows up on in links; an undersized switch shows up on
	// the backplane.
	queueResNanos [numQueueResources]int64
	// QueueKindNanos splits the total queueing delay by the message's
	// traffic category, locating which protocol activity queued.
	QueueKindNanos [numKinds]int64
}

// Record adds one message of kind k carrying the given number of bytes
// (payload plus header).
func (s *Stats) Record(k Kind, bytes int) {
	s.Msgs[k]++
	s.Bytes[k] += int64(bytes)
}

// RecordQueue adds contention queueing delay for one message of kind k,
// attributed to the binding resource res.
func (s *Stats) RecordQueue(nanos int64, res QueueResource, k Kind) {
	s.QueueNanos += nanos
	s.QueuedMsgs++
	s.queueResNanos[res] += nanos
	s.QueueKindNanos[k] += nanos
}

// TotalQueueNanos returns the queueing delay.
func (s *Stats) TotalQueueNanos() int64 { return s.QueueNanos }

// TotalQueuedMsgs returns the number of messages that waited for a busy
// link.
func (s *Stats) TotalQueuedMsgs() int64 { return s.QueuedMsgs }

// QueueResNanosOf returns the queueing delay bound by one resource.
func (s *Stats) QueueResNanosOf(res QueueResource) int64 {
	if res >= numQueueResources {
		return 0
	}
	return s.queueResNanos[res]
}

// QueueKindNanosOf returns the queueing delay accumulated by messages
// of one traffic category.
func (s *Stats) QueueKindNanosOf(k Kind) int64 {
	if k >= numKinds {
		return 0
	}
	return s.QueueKindNanos[k]
}

// Reset zeroes every counter. The harness calls this at the end of the
// warm-up iteration, mirroring the paper's practice of excluding the
// first iteration from measurement.
func (s *Stats) Reset() {
	*s = Stats{}
}

// TotalMsgs returns the number of counted messages.
func (s *Stats) TotalMsgs() int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		if k.counted() {
			t += s.Msgs[k]
		}
	}
	return t
}

// TotalBytes returns the counted data volume in bytes.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		if k.counted() {
			t += s.Bytes[k]
		}
	}
	return t
}

// TotalKB returns the counted data volume in kilobytes (1024 bytes), the
// unit used by Tables 2 and 3.
func (s *Stats) TotalKB() int64 { return s.TotalBytes() / 1024 }

// MsgsOf returns the message count for one category.
func (s *Stats) MsgsOf(k Kind) int64 { return s.Msgs[k] }

// BytesOf returns the byte count for one category.
func (s *Stats) BytesOf(k Kind) int64 { return s.Bytes[k] }

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	for k := Kind(0); k < numKinds; k++ {
		s.Msgs[k] += o.Msgs[k]
		s.Bytes[k] += o.Bytes[k]
		s.QueueKindNanos[k] += o.QueueKindNanos[k]
	}
	s.QueueNanos += o.QueueNanos
	s.QueuedMsgs += o.QueuedMsgs
	for r := QueueResource(0); r < numQueueResources; r++ {
		s.queueResNanos[r] += o.queueResNanos[r]
	}
}

// Sub subtracts o from s, counter by counter. The timed-region
// bookkeeping uses it to strip a warm-up baseline snapshot.
func (s *Stats) Sub(o *Stats) {
	for k := Kind(0); k < numKinds; k++ {
		s.Msgs[k] -= o.Msgs[k]
		s.Bytes[k] -= o.Bytes[k]
		s.QueueKindNanos[k] -= o.QueueKindNanos[k]
	}
	s.QueueNanos -= o.QueueNanos
	s.QueuedMsgs -= o.QueuedMsgs
	for r := QueueResource(0); r < numQueueResources; r++ {
		s.queueResNanos[r] -= o.queueResNanos[r]
	}
}

// String formats the non-zero categories, for debugging and reports.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d kb=%d", s.TotalMsgs(), s.TotalKB())
	for k := Kind(0); k < numKinds; k++ {
		if s.Msgs[k] != 0 {
			fmt.Fprintf(&b, " %s=%d/%dB", k, s.Msgs[k], s.Bytes[k])
		}
	}
	if q := s.TotalQueueNanos(); q != 0 {
		fmt.Fprintf(&b, " queued=%d/%dns", s.TotalQueuedMsgs(), q)
		for r := QueueResource(0); r < numQueueResources; r++ {
			if n := s.QueueResNanosOf(r); n != 0 {
				fmt.Fprintf(&b, " q.%s=%dns", r, n)
			}
		}
	}
	return b.String()
}

// AllKinds lists every category in declaration order.
func AllKinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}
