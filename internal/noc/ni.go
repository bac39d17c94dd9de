package noc

import (
	"fmt"

	"repro/internal/obs"
)

// activeStream is a packet that has been allocated an injection VC and is
// being streamed flit by flit onto the local link. Streams are stored by
// value in the NI (pkt == nil means the slot is idle): opening one happens
// for every injected packet, far too often to heap-allocate.
type activeStream struct {
	pkt  *Packet
	next int // next flit sequence number
	vc   int
}

// NI is the network interface of one node. It packetizes outgoing messages
// (stamping the OCOR priority fields into the head flit, as the paper's
// enhanced NI does), injects them subject to VC allocation and credits on
// the local link, and reassembles arriving flits into packets.
//
// Under OCOR the injection link is arbitrated with the same Table 1
// priority rules as the routers, so a locking request is not stuck behind
// the remaining flits of a data packet at the source either.
type NI struct {
	cfg  *Config
	node int

	// inFlits holds the flits in flight on the router's ejection link
	// toward this NI, and inCredits the credits in flight from the
	// router's Local input port back to it; both are FIFO in due order
	// (a fault-delayed flit holds back the flits behind it).
	inFlits   []niFlit
	inCredits []niCredit

	outCredits []int32
	outAlloc   []bool

	queues [NumVNets][]*Packet
	active [NumVNets]activeStream
	// sink is the node's protocol-level delivery callback; onDeliver is the
	// network's statistics hook.
	sink      func(now uint64, pkt *Packet)
	onDeliver func(pkt *Packet)
	// obs, when non-nil, receives packet injection/ejection events.
	obs *obs.Recorder

	// net is the owning network: each waiting or streaming packet counts
	// in its activity and queued-packet totals, and the NI keeps its bit
	// of the network's niInject set equal to QueuedPkts > 0 so the
	// injection phase skips idle interfaces.
	net *Network

	// Stats
	Injected   [NumClasses]uint64
	Delivered  [NumClasses]uint64
	FlitsSent  uint64
	QueuedPkts int // packets waiting or streaming
}

// initNI initialises a slab-allocated NI in place; credits and allocs are
// VCs-sized subslices of the network's node-major arenas.
func initNI(ni *NI, n *Network, node int, credits []int32, allocs []bool) {
	cfg := &n.Cfg
	*ni = NI{cfg: cfg, node: node, net: n}
	ni.outCredits = credits[:cfg.VCs:cfg.VCs]
	ni.outAlloc = allocs[:cfg.VCs:cfg.VCs]
	for v := range ni.outCredits {
		ni.outCredits[v] = int32(cfg.VCDepth)
	}
}

// SetSink registers the delivery callback invoked when a packet's tail flit
// is ejected at this node.
func (ni *NI) SetSink(fn func(now uint64, pkt *Packet)) { ni.sink = fn }

// enqueue accepts a packet for injection.
func (ni *NI) enqueue(now uint64, pkt *Packet) {
	pkt.EnqueuedAt = now
	ni.queues[pkt.VNet] = append(ni.queues[pkt.VNet], pkt)
	if ni.QueuedPkts == 0 {
		ni.net.niInject.set(ni.node)
	}
	ni.QueuedPkts++
	ni.net.activity++
	ni.net.queuedPkts++
}

// eject absorbs flits delivered by the router this cycle, returning one
// credit per flit and completing packets on tail flits.
func (ni *NI) eject(now uint64) {
	n := ni.net
	k := 0
	for k < len(ni.inFlits) && ni.inFlits[k].at <= now {
		k++
	}
	if k == 0 {
		return
	}
	n.scratchF = takeDue(&ni.inFlits, n.scratchF, k)
	n.activity -= k
	n.niEvents -= k
	at := now + uint64(ni.cfg.LinkLatency)
	for _, ev := range n.scratchF {
		if ev.fate == fateDup {
			// Injected duplicate: discard before touching the packet (the
			// original may have been delivered and recycled earlier in this
			// very batch) and return no credit — the router never budgeted
			// buffer space for it.
			continue
		}
		tail := int(ev.seq) == ev.pkt.Size-1
		// A drop at the ejection port still returns the credit the router
		// budgeted, but never delivers the packet.
		n.pushCredit(at, n.creditIndex(ni.node, Local, int(ev.vc)), tail)
		if ev.fate == fateDrop || !tail {
			continue
		}
		pkt := ev.pkt
		pkt.DeliveredAt = now
		ni.Delivered[pkt.Class]++
		if ni.obs != nil {
			ni.obs.PktEjected(now, pkt.ID, ni.node, pkt.Hops, pkt.NetLatency(), pkt.TotalLatency(), uint8(pkt.Class))
		}
		if ni.onDeliver != nil {
			ni.onDeliver(pkt)
		}
		if ni.sink != nil {
			ni.sink(now, pkt)
		}
	}
}

// commitCredits absorbs credit returns from the router's Local input port.
func (ni *NI) commitCredits(now uint64) {
	n := ni.net
	k := 0
	for k < len(ni.inCredits) && ni.inCredits[k].at <= now {
		k++
	}
	if k == 0 {
		return
	}
	n.scratchC = takeDue(&ni.inCredits, n.scratchC, k)
	n.activity -= k
	n.niEvents -= k
	for _, ev := range n.scratchC {
		ni.outCredits[ev.vc]++
		if int(ni.outCredits[ev.vc]) > ni.cfg.VCDepth {
			panic(fmt.Sprintf("noc: NI %d credit overflow on vc %d", ni.node, ev.vc))
		}
		if ev.freeVC {
			ni.outAlloc[ev.vc] = false
		}
	}
}

// inject opens streams for waiting packets and sends at most one flit onto
// the local link (link bandwidth is one flit per cycle).
func (ni *NI) inject(now uint64) {
	// Open a stream per vnet whenever a VC is free. Under OCOR pick the
	// highest-priority waiting packet of the vnet, not merely the oldest.
	for vn := 0; vn < NumVNets; vn++ {
		if ni.active[vn].pkt != nil || len(ni.queues[vn]) == 0 {
			continue
		}
		lo, hi := ni.cfg.VCRange(vn)
		vcFree := -1
		for v := lo; v < hi; v++ {
			if !ni.outAlloc[v] {
				vcFree = v
				break
			}
		}
		if vcFree < 0 {
			continue
		}
		idx := 0
		if ni.cfg.Priority {
			// Key order is Compare order (core.TestKeyOrderMatchesCompare);
			// strict > keeps the first-enqueued packet on ties, exactly as
			// the rule-chain comparison did.
			bestKey := ni.queues[vn][0].Prio.Key()
			for i := 1; i < len(ni.queues[vn]); i++ {
				if k := ni.queues[vn][i].Prio.Key(); k > bestKey {
					idx, bestKey = i, k
				}
			}
		}
		pkt := ni.queues[vn][idx]
		ni.queues[vn] = append(ni.queues[vn][:idx], ni.queues[vn][idx+1:]...)
		ni.outAlloc[vcFree] = true
		ni.active[vn] = activeStream{pkt: pkt, vc: vcFree}
	}

	// Pick which active stream sends a flit this cycle.
	best := -1
	for vn := 0; vn < NumVNets; vn++ {
		st := &ni.active[vn]
		if st.pkt == nil || ni.outCredits[st.vc] <= 0 {
			continue
		}
		if best == -1 {
			best = vn
			continue
		}
		if ni.cfg.Priority && st.pkt.Prio.Key() > ni.active[best].pkt.Prio.Key() {
			best = vn
		}
	}
	if best == -1 {
		return
	}
	st := &ni.active[best]
	if st.next == 0 {
		st.pkt.InjectedAt = now
		ni.Injected[st.pkt.Class]++
		if ni.obs != nil {
			ni.obs.PktInjected(now, st.pkt.ID, ni.node, st.pkt.Dst, uint8(st.pkt.Class), st.pkt.VNet, st.pkt.Size, st.pkt.Prio)
		}
	}
	n := ni.net
	ev := flitEvent{pkt: st.pkt, seq: int32(st.next), node: int32(ni.node), port: Local, vc: uint8(st.vc)}
	at := now + uint64(ni.cfg.LinkLatency)
	if n.faults != nil {
		n.sendFaulted(at, ev, n.NILinkID(ni.node))
	} else {
		n.wheel.pushFlit(at, ev)
		n.activity++
	}
	ni.outCredits[st.vc]--
	ni.FlitsSent++
	st.next++
	if st.next == st.pkt.Size {
		ni.active[best] = activeStream{}
		ni.QueuedPkts--
		n.activity--
		n.queuedPkts--
		if ni.QueuedPkts == 0 {
			n.niInject.clear(ni.node)
		}
	}
}

// pendingWork reports whether the NI holds packets waiting or streaming.
func (ni *NI) pendingWork() bool { return ni.QueuedPkts > 0 }
