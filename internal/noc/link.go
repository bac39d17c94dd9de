package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
)

// Links. A link carries flits one way and credits the other, and every
// sender stamps an event due LinkLatency cycles later. Every event in
// flight — flits into router input ports, credits into router output
// ports and NI injection ports, and flits ejected to an NI — goes onto
// one network-wide wheel of slots indexed by due cycle, so a send is an
// insert into the slot of its due cycle and the tick drains exactly the
// slots that are due, in cycle order.
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

// flitEvent is a flit in flight: flit seq of pkt, for input VC vc of port
// port at router node, or, as an ejection, for VC vc of NI node (port
// Local). It is 24 bytes and carries no due cycle: its wheel slot is its
// due cycle.
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

// wheel holds the link events in flight. Slot i holds the events due at
// the one cycle c in [base, base+len) with c mod len == i, in three
// lists: router-bound flits and credits in send order, and ejections in
// node order, first in first out within a node — the order the NIs take
// their flits in, which delivery callbacks observe. fbits/cbits/ebits
// mark the non-empty slots of each list, so finding the next due slot,
// the earliest flit or ejection and the latest credit reads a word or two
// whatever the span. Credit events are one uint32: the credit-arena index
// of the router output VC or NI injection VC they return a slot to,
// shifted left once, with the low bit set when the credit also frees the
// VC.
type wheel struct {
	base     uint64
	mask     uint64
	flits    [][]flitEvent
	credits  [][]uint32
	ejects   [][]flitEvent
	fbits    []uint64
	cbits    []uint64
	ebits    []uint64
	nflits   int
	ncredits int
	nejects  int
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
	words := (span + 63) / 64
	return wheel{
		mask:    uint64(span - 1),
		flits:   make([][]flitEvent, span),
		credits: make([][]uint32, span),
		ejects:  make([][]flitEvent, span),
		fbits:   make([]uint64, words),
		cbits:   make([]uint64, words),
		ebits:   make([]uint64, words),
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

// pushEject inserts ejection ev into the slot of cycle due, after the last
// ejection whose node is at or below its own. Routers eject in ascending
// node order within a tick, so only a fault delay makes this more than an
// append.
func (w *wheel) pushEject(due uint64, ev flitEvent) {
	i := due & w.mask
	es := append(w.ejects[i], ev)
	k := len(es) - 1
	for ; k > 0 && es[k-1].node > ev.node; k-- {
		es[k] = es[k-1]
	}
	es[k] = ev
	w.ejects[i] = es
	w.ebits[i>>6] |= 1 << (i & 63)
	w.nejects++
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
// event of any kind, or the span when the wheel is empty.
func (w *wheel) nextDue() uint64 {
	p, span := w.base&w.mask, w.span()
	return min(firstSet(w.fbits, p, span), firstSet(w.cbits, p, span), firstSet(w.ebits, p, span))
}

// first returns the due cycle of the earliest slot bitmap bm (fbits,
// cbits or ebits) marks; bm must mark one.
func (w *wheel) first(bm []uint64) uint64 { return w.base + firstSet(bm, w.base&w.mask, w.span()) }

// last returns the due cycle of the latest slot bitmap bm marks; bm must
// mark one.
func (w *wheel) last(bm []uint64) uint64 { return w.base + lastSet(bm, w.base&w.mask, w.span()) }

// each calls fn for every event of lists — the wheel's flits, credits or
// ejects — in due-cycle order, list order within a cycle. fn must not
// push.
func each[E any](w *wheel, lists [][]E, fn func(due uint64, ev E)) {
	for d := uint64(0); d < w.span(); d++ {
		c := w.base + d
		for _, ev := range lists[c&w.mask] {
			fn(c, ev)
		}
	}
}

// drainWheel is Tick phase 1: it delivers every event due at or before
// now, slot by slot in cycle order: router-bound flits, then credits, then
// ejections. A flit commits with its slot's cycle as its arrival stamp. A
// drop-marked flit's credit lands LinkLatency slots later, so when that
// is still due it is drained by a later step of this same loop.
// Ejections are never deferred (NextEventCycle answers their slot
// exactly), so their slot is now, and their credits land past it.
func (n *Network) drainWheel(now uint64) {
	w := &n.wheel
	for w.nflits+w.ncredits+w.nejects > 0 {
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
		if es := w.ejects[i]; len(es) > 0 {
			for k := range es {
				n.NIs[es[k].node].eject(now, &es[k])
			}
			w.ejects[i] = es[:0]
			w.ebits[i>>6] &^= 1 << (i & 63)
			w.nejects -= len(es)
			n.activity -= len(es)
		}
		w.base = c + 1
	}
	if w.base <= now {
		w.base = now + 1
	}
}

// commitCredit returns one buffer slot to the router output VC or NI
// injection VC credit event ev names, freeing the VC when its free bit is
// set.
func (n *Network) commitCredit(ev uint32) {
	idx := ev >> 1
	n.credits[idx]++
	if int(n.credits[idx]) > n.Cfg.VCDepth {
		panic(fmt.Sprintf("noc: %s credit overflow", n.creditName(int(idx))))
	}
	if ev&1 != 0 {
		n.vcAlloc[idx] = false
	}
}

// sendFlit puts flit seq of pkt on the link leaving router node through
// port out, arriving at cycle at on VC vc: toward the neighbouring router,
// or toward the node's NI for out == Local.
func (n *Network) sendFlit(node int, out Dir, pkt *Packet, seq int32, vc uint8, at uint64) {
	if out == Local {
		ev := flitEvent{pkt: pkt, seq: seq, node: int32(node), port: Local, vc: vc}
		if n.faults != nil {
			n.sendFaulted(at, ev, LinkID(node, Local), true)
			return
		}
		n.wheel.pushEject(at, ev)
		n.activity++
		return
	}
	if n.faults != nil {
		ev := flitEvent{pkt: pkt, seq: seq, node: int32(node + n.step[out]), port: out ^ 2, vc: vc}
		n.sendFaulted(at, ev, LinkID(node, out), false)
		return
	}
	ev := n.wheel.newFlit(at)
	ev.pkt, ev.seq, ev.node, ev.port, ev.vc = pkt, seq, int32(node+n.step[out]), out^2, vc
	n.activity++
}

// sendFaulted pushes flit ev, sent on fault link linkID and due at cycle
// at, after the injector decides its fate: as an ejection when eject is
// set, else toward a router.
func (n *Network) sendFaulted(at uint64, ev flitEvent, linkID int32, eject bool) {
	cnt, due, f := n.flitFate(at, ev.pkt, ev.seq, linkID)
	due = n.clampDue(due, &ev, eject)
	push := n.wheel.pushFlit
	if eject {
		push = n.wheel.pushEject
	}
	ev.fate = f
	push(due, ev)
	if cnt == 2 {
		ev.fate = fateDup
		push(due, ev)
	}
	n.activity += cnt
}

// clampDue returns the due cycle of flit ev, sent due at cycle due, on the
// link it arrives on: an ejection's link toward its NI, else the link
// into its router port. A delay must not let a later flit on a link
// overtake a delayed one, so each flit's due cycle is clamped to the last
// one its link stamped: a later flit arrives with the delayed one, as it
// would behind it in a FIFO.
func (n *Network) clampDue(due uint64, ev *flitEvent, eject bool) uint64 {
	k := int(ev.node)*int(NumDirs) + int(ev.port)
	if eject {
		k = n.Cfg.Nodes()*int(NumDirs) + int(ev.node)
	}
	due = max(due, n.lastDue[k])
	n.lastDue[k] = due
	return due
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
// the port's upstream sender, due at cycle at: the neighbouring router's
// output port, or the node's NI for in == Local.
func (n *Network) sendCredit(node int, in Dir, vc int, freeVC bool, at uint64) {
	if in == Local {
		n.pushCredit(at, n.niBase+node*n.Cfg.VCs+vc, freeVC)
		return
	}
	n.pushCredit(at, n.creditIndex(node+n.step[in], in^2, vc), freeVC)
}

// creditIndex returns the credit-arena index of VC vc of router node's
// output port d.
func (n *Network) creditIndex(node int, d Dir, vc int) int {
	return node*n.perRouter + int(d)*n.Cfg.VCs + vc
}

// creditName names the VC at credit-arena index idx.
func (n *Network) creditName(idx int) string {
	if idx >= n.niBase {
		idx -= n.niBase
		return fmt.Sprintf("NI %d vc %d", idx/n.Cfg.VCs, idx%n.Cfg.VCs)
	}
	v := idx % n.perRouter
	return fmt.Sprintf("router %d dir %s vc %d", idx/n.perRouter, Dir(v/n.Cfg.VCs), v%n.Cfg.VCs)
}

// pushCredit puts a credit for the VC at credit-arena index idx into the
// wheel, due at cycle at.
func (n *Network) pushCredit(at uint64, idx int, freeVC bool) {
	ev := uint32(idx) << 1
	if freeVC {
		ev |= 1
	}
	n.wheel.pushCredit(at, ev)
	n.activity++
}
