package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
)

// Links. A link carries flits one way and credits the other, and every
// sender stamps an event due LinkLatency cycles later. Events bound for a
// router — flits into its input ports, credits into its output ports —
// go onto one network-wide wheel of slots indexed by due cycle, so a
// send is an append to the slot of its due cycle and the tick drains
// exactly the slots that are due, in cycle order. Events bound for an NI
// — a router's ejection flits and the credits its Local input port
// returns — stay in per-NI FIFO queues, which the NI phase drains in node
// order: delivery callbacks observe that order.
//
// No link is stored: a router's neighbour one hop in direction d is
// node+step[d], and it receives on port d^2 (North<->South,
// East<->West). The fault injector names a link by its sender
// (LinkID/NILinkID).

// fate marks what a flit event carries: the flit itself, an injected
// duplicate, or a flit the injector corrupted in transit.
type fate uint8

const (
	fateNormal fate = iota
	// fateDup marks an injected duplicate: receivers skip it before
	// touching the packet, because the original may already have been
	// delivered (and recycled) in the same drain batch.
	fateDup
	// fateDrop marks a corrupted flit: the receiver discards it on arrival
	// and immediately credits the buffer slot it would have occupied back
	// upstream, so drops degrade throughput without ever leaking
	// flow-control credits.
	fateDrop
	numFates
)

// flitEvent is a router-bound flit in flight: flit seq of pkt, for input
// VC vc of port port at router node. It is 24 bytes and carries no due
// cycle: its wheel slot is its due cycle.
type flitEvent struct {
	pkt  *Packet
	seq  int32
	node int32
	port Dir
	vc   uint8
	fate fate
}

// isTail reports whether the event carries its packet's last flit.
func (ev *flitEvent) isTail() bool { return int(ev.seq) == ev.pkt.Size-1 }

// niFlit is a flit in flight on a router's ejection link, due at cycle at
// on VC vc of the NI.
type niFlit struct {
	pkt  *Packet
	seq  int32
	vc   uint8
	fate fate
	at   uint64
}

// niCredit is a credit in flight from a router's Local input port to its
// NI: one buffer slot of VC vc was freed, and freeVC also releases the VC
// (the tail flit left the router's buffer).
type niCredit struct {
	at     uint64
	vc     uint8
	freeVC bool
}

// wheel holds the router-bound events in flight. Slot i holds the events
// due at the one cycle c in [base, base+len) with c mod len == i, in send
// order; a flit slot and a credit slot share each index. fbits/cbits mark
// the non-empty slots, so finding the next due slot, the earliest flit
// and the latest credit reads a word or two whatever the span. Credit
// events are one uint32: the credit-arena index of the output VC they
// return a slot to, shifted left once, with the low bit set when the
// credit also frees the VC.
type wheel struct {
	base     uint64
	mask     uint64
	flits    [][]flitEvent
	credits  [][]uint32
	fbits    []uint64
	cbits    []uint64
	nflits   int
	ncredits int
}

// newWheel returns a wheel whose span covers every due cycle a send can
// stamp: the longest link flight plus any fault delay. Sends during a
// tick at cycle t are due in [t+1, t+span), and the drain frees every
// slot up to t first, so no slot ever holds two cycles. The span is the
// smallest power of two above the flight, so the few slots a short
// flight cycles through stay in cache; a span above 64 takes one bitmap
// word per 64 slots.
func newWheel(flight int) wheel {
	span := 2
	for span <= flight {
		span <<= 1
	}
	return wheel{
		mask:    uint64(span - 1),
		flits:   make([][]flitEvent, span),
		credits: make([][]uint32, span),
		fbits:   make([]uint64, (span+63)/64),
		cbits:   make([]uint64, (span+63)/64),
	}
}

// span returns the number of slots.
func (w *wheel) span() uint64 { return w.mask + 1 }

// pushFlit appends ev to the slot of cycle due.
func (w *wheel) pushFlit(due uint64, ev flitEvent) { *w.newFlit(due) = ev }

// newFlit appends a zero flit event to the slot of cycle due and returns
// it for the caller to fill in place.
func (w *wheel) newFlit(due uint64) *flitEvent {
	i := due & w.mask
	fs := append(w.flits[i], flitEvent{})
	w.flits[i] = fs
	w.fbits[i>>6] |= 1 << (i & 63)
	w.nflits++
	return &fs[len(fs)-1]
}

// pushCredit appends credit event ev to the slot of cycle due.
func (w *wheel) pushCredit(due uint64, ev uint32) {
	i := due & w.mask
	w.credits[i] = append(w.credits[i], ev)
	w.cbits[i>>6] |= 1 << (i & 63)
	w.ncredits++
}

// rotated returns a span-slot bitmap of at most 64 slots turned so that
// bit d is slot p+d.
func rotated(word, p, span uint64) uint64 {
	return (word>>p | word<<(span-p)) & (^uint64(0) >> (64 - span))
}

// firstSet returns the distance from slot p forward to the first set bit
// of bm, a bitmap of span slots, wrapping around, or the span when bm is
// empty.
func firstSet(bm []uint64, p, span uint64) uint64 {
	if len(bm) == 1 {
		if m := rotated(bm[0], p, span); m != 0 {
			return uint64(bits.TrailingZeros64(m))
		}
		return span
	}
	for d := uint64(0); d < span; {
		i := (p + d) & (span - 1)
		if word := bm[i>>6] >> (i & 63); word != 0 {
			return d + uint64(bits.TrailingZeros64(word))
		}
		d += 64 - i&63
	}
	return span
}

// lastSet returns the distance from slot p forward to the last set bit of
// bm, a bitmap of span slots, before p comes round again, or the span
// when bm is empty.
func lastSet(bm []uint64, p, span uint64) uint64 {
	if len(bm) == 1 {
		if m := rotated(bm[0], p, span); m != 0 {
			return 63 - uint64(bits.LeadingZeros64(m))
		}
		return span
	}
	for d := span; d > 0; {
		i := (p + d - 1) & (span - 1)
		b := i & 63
		if word := bm[i>>6] << (63 - b); word != 0 {
			return d - 1 - uint64(bits.LeadingZeros64(word))
		}
		if d <= b+1 {
			break
		}
		d -= b + 1
	}
	return span
}

// nextDue returns the distance from base to the first slot holding an
// event of either kind, or the span when the wheel is empty.
func (w *wheel) nextDue() uint64 {
	p, span := w.base&w.mask, w.span()
	return min(firstSet(w.fbits, p, span), firstSet(w.cbits, p, span))
}

// firstFlit returns the due cycle of the earliest flit; the wheel must
// hold one.
func (w *wheel) firstFlit() uint64 { return w.base + firstSet(w.fbits, w.base&w.mask, w.span()) }

// lastCredit returns the due cycle of the latest credit; the wheel must
// hold one.
func (w *wheel) lastCredit() uint64 { return w.base + lastSet(w.cbits, w.base&w.mask, w.span()) }

// forEach calls fn for every event in due-cycle order, flits before the
// credits of the same cycle: the order Tick drains them in. fn must not
// push.
func (w *wheel) forEach(flit func(due uint64, ev flitEvent), credit func(due uint64, ev uint32)) {
	for d := uint64(0); d < w.span(); d++ {
		c := w.base + d
		i := c & w.mask
		for _, ev := range w.flits[i] {
			flit(c, ev)
		}
		for _, ev := range w.credits[i] {
			credit(c, ev)
		}
	}
}

// drainWheel is Tick phase 1: it commits every router-bound event due at
// or before now, slot by slot in cycle order, flits before credits. A
// flit commits with its slot's cycle as its arrival stamp. A drop-marked
// flit's credit lands LinkLatency slots later, so when that is still due
// it is drained by a later step of this same loop.
func (n *Network) drainWheel(now uint64) {
	w := &n.wheel
	for w.nflits+w.ncredits > 0 {
		c := w.base + w.nextDue()
		if c > now {
			break
		}
		i := c & w.mask
		if fs := w.flits[i]; len(fs) > 0 {
			for k := range fs {
				ev := &fs[k]
				n.routerSlab[ev.node].commit(c, ev)
			}
			w.flits[i] = fs[:0]
			w.fbits[i>>6] &^= 1 << (i & 63)
			w.nflits -= len(fs)
			n.activity -= len(fs)
		}
		if cs := w.credits[i]; len(cs) > 0 {
			for _, ev := range cs {
				n.commitCredit(ev)
			}
			w.credits[i] = cs[:0]
			w.cbits[i>>6] &^= 1 << (i & 63)
			w.ncredits -= len(cs)
			n.activity -= len(cs)
		}
		w.base = c + 1
	}
	if w.base <= now {
		w.base = now + 1
	}
}

// commitCredit returns one buffer slot to the router output VC credit
// event ev names, freeing the VC when its free bit is set.
func (n *Network) commitCredit(ev uint32) {
	idx := ev >> 1
	n.credits[idx]++
	if int(n.credits[idx]) > n.Cfg.VCDepth {
		node, v := int(idx)/n.perRouter, int(idx)%n.perRouter
		panic(fmt.Sprintf("noc: router %d dir %s vc %d credit overflow", node, Dir(v/n.Cfg.VCs), v%n.Cfg.VCs))
	}
	if ev&1 != 0 {
		n.vcAlloc[idx] = false
	}
}

// sendFlit puts flit seq of pkt on the link leaving router node through
// port out, arriving at cycle at on VC vc: into the wheel toward the
// neighbouring router, or onto the node's NI queue for out == Local.
func (n *Network) sendFlit(node int, out Dir, pkt *Packet, seq int32, vc uint8, at uint64) {
	if out == Local {
		n.ejectFlit(node, pkt, seq, vc, at)
		return
	}
	if n.faults != nil {
		ev := flitEvent{pkt: pkt, seq: seq, node: int32(node + n.step[out]), port: out ^ 2, vc: vc}
		n.sendFaulted(at, ev, LinkID(node, out))
		return
	}
	ev := n.wheel.newFlit(at)
	ev.pkt, ev.seq, ev.node, ev.port, ev.vc = pkt, seq, int32(node+n.step[out]), out^2, vc
	n.activity++
}

// ejectFlit queues a flit on router node's ejection link toward its NI.
// The queue is FIFO, so a fault-delayed flit holds back the flits behind
// it.
func (n *Network) ejectFlit(node int, pkt *Packet, seq int32, vc uint8, at uint64) {
	cnt, f := 1, fateNormal
	if n.faults != nil {
		cnt, at, f = n.flitFate(at, pkt, seq, LinkID(node, Local))
	}
	ni := n.NIs[node]
	ni.inFlits = append(ni.inFlits, niFlit{pkt: pkt, seq: seq, vc: vc, fate: f, at: at})
	if cnt == 2 {
		ni.inFlits = append(ni.inFlits, niFlit{pkt: pkt, seq: seq, vc: vc, fate: fateDup, at: at})
	}
	n.activity += cnt
	n.niEvents += cnt
	n.niActive.set(node)
}

// sendFaulted pushes router-bound flit ev, sent on fault link linkID and
// due at cycle at, after the injector decides its fate. A delay must not
// let a later flit on the same link overtake this one, so each flit's
// due cycle is clamped to the last one its link stamped: a later flit
// arrives with the delayed one, as it would behind it in a FIFO.
func (n *Network) sendFaulted(at uint64, ev flitEvent, linkID int32) {
	cnt, due, f := n.flitFate(at, ev.pkt, ev.seq, linkID)
	k := int(ev.node)*int(NumDirs) + int(ev.port)
	due = max(due, n.lastDue[k])
	n.lastDue[k] = due
	ev.fate = f
	n.wheel.pushFlit(due, ev)
	if cnt == 2 {
		ev.fate = fateDup
		n.wheel.pushFlit(due, ev)
	}
	n.activity += cnt
}

// flitFate asks the injector what happens to flit seq of pkt arriving at
// cycle at on fault link linkID. It returns the number of events to send
// (2 = duplicated), the possibly delayed arrival cycle, and the fate of
// the first event — a drop-marked flit still travels (and is accounted)
// like any other, but the receiver discards it on arrival and returns its
// credit instead of buffering it. The fate is a pure function of (plan
// seed, packet id, link id), so all flits of one packet share it: a Drop
// removes the whole packet atomically rather than truncating its flit
// train, and no partial train ever occupies a downstream VC.
func (n *Network) flitFate(at uint64, pkt *Packet, seq int32, linkID int32) (cnt int, when uint64, f fate) {
	act, extra := n.faults.FlitFate(at, pkt.ID, int(seq) == pkt.Size-1, linkID, uint8(pkt.Class))
	switch act {
	case fault.Drop:
		return 1, at, fateDrop
	case fault.Dup:
		return 2, at, fateNormal
	case fault.Delay:
		return 1, at + extra, fateNormal
	}
	return 1, at, fateNormal
}

// sendCredit returns a credit for VC vc of router node's input port in to
// the port's upstream sender, due at cycle at: into the wheel toward the
// neighbouring router's output port, or onto the node's NI queue for
// in == Local.
func (n *Network) sendCredit(node int, in Dir, vc int, freeVC bool, at uint64) {
	if in == Local {
		ni := n.NIs[node]
		ni.inCredits = append(ni.inCredits, niCredit{at: at, vc: uint8(vc), freeVC: freeVC})
		n.activity++
		n.niEvents++
		n.niActive.set(node)
		return
	}
	n.pushCredit(at, n.creditIndex(node+n.step[in], in^2, vc), freeVC)
}

// creditIndex returns the credit-arena index of VC vc of router node's
// output port d.
func (n *Network) creditIndex(node int, d Dir, vc int) int {
	return node*n.perRouter + int(d)*n.Cfg.VCs + vc
}

// pushCredit puts a credit for the output VC at credit-arena index idx
// into the wheel, due at cycle at.
func (n *Network) pushCredit(at uint64, idx int, freeVC bool) {
	ev := uint32(idx) << 1
	if freeVC {
		ev |= 1
	}
	n.wheel.pushCredit(at, ev)
	n.activity++
}

// takeDue moves the first k events of *q out and returns them. The result
// aliases storage of q or scratch and stays valid until the next call
// with the same scratch, so every caller stores it back as its scratch:
// when the whole queue is due (the common case) the queue's backing array
// is handed over and the scratch becomes the empty queue, instead of
// copying.
func takeDue[E any](q *[]E, scratch []E, k int) []E {
	if k == len(*q) {
		due := *q
		*q = scratch[:0]
		return due
	}
	scratch = append(scratch[:0], (*q)[:k]...)
	*q = (*q)[:copy(*q, (*q)[k:])]
	return scratch
}
