package noc

import (
	"fmt"

	"repro/internal/checkpoint"
)

// PayloadSaver serializes the protocol message behind a typed payload
// reference. The platform wires it to the owning subsystem's SaveMsg
// (kernel or mem) keyed on the packet's PayloadKind.
type PayloadSaver func(w *checkpoint.Writer, kind PayloadKind, ref uint32) error

// PayloadLoader re-interns one serialized protocol message into the owning
// subsystem's message slab and returns the new ref for the carrying
// packet's PayloadRef.
type PayloadLoader func(r *checkpoint.Reader, kind PayloadKind) (uint32, error)

// collectPackets gathers every live packet reachable from the network's
// dynamic state — loopback events, the wheel's flits and ejections,
// router VC buffers and NI queues and streams — in a canonical sweep
// order, assigning each distinct packet a table index. Dup-marked flit
// events share their packet with the original event sent alongside them,
// so every pointer seen here is live.
func (n *Network) collectPackets() ([]*Packet, map[*Packet]int32) {
	var pkts []*Packet
	idx := make(map[*Packet]int32)
	add := func(p *Packet) {
		if p == nil {
			return
		}
		if _, ok := idx[p]; ok {
			return
		}
		idx[p] = int32(len(pkts))
		pkts = append(pkts, p)
	}
	for _, ev := range n.loopback {
		add(ev.pkt)
	}
	each(&n.wheel, n.wheel.flits, func(_ uint64, ev flitEvent) { add(ev.pkt) })
	each(&n.wheel, n.wheel.ejects, func(_ uint64, ev flitEvent) { add(ev.pkt) })
	for _, r := range n.Routers {
		for i := range r.in {
			if vc := &r.in[i]; vc.n > 0 {
				add(vc.pkt)
			}
		}
	}
	for _, ni := range n.NIs {
		for vn := 0; vn < NumVNets; vn++ {
			for _, p := range ni.queues[vn] {
				add(p)
			}
			add(ni.active[vn].pkt)
		}
	}
	return pkts, idx
}

// SnapshotTo writes the network's complete dynamic state: statistics, the
// live-packet table (payloads serialized through savePayload), loopback
// events, the wheel's link events, every router's pipeline and credit
// state (a router that never built its input VCs writes a fresh router's
// VC records) and every NI's credits, queues and streams. Derived
// activity counters and bitmaps are recomputed on restore; their totals
// are written anyway as an integrity cross-check.
func (n *Network) SnapshotTo(w *checkpoint.Writer, savePayload PayloadSaver) error {
	pkts, pktIdx := n.collectPackets()
	for _, p := range pkts {
		if p.Payload != nil {
			return fmt.Errorf("noc: packet %d carries an untyped Payload; checkpointing requires slab-ref payloads", p.ID)
		}
		if p.PayloadKind != PayloadNone && savePayload == nil {
			return fmt.Errorf("noc: packet %d has payload kind %d but no payload saver", p.ID, p.PayloadKind)
		}
	}

	w.Begin("noc")
	for _, v := range n.Stats.InjectedPkts {
		w.U64(v)
	}
	for _, v := range n.Stats.DeliveredPkts {
		w.U64(v)
	}
	w.U64(n.Stats.InjectedFlits)
	w.U64(n.Stats.LocalDeliveries)
	for c := 0; c < NumClasses; c++ {
		n.Stats.NetLatency[c].SnapshotTo(w)
		n.Stats.TotalLatency[c].SnapshotTo(w)
	}
	w.U64(n.pktID)
	// Integrity cross-check totals (recomputed on restore).
	w.Int(n.activity)
	w.Int(n.routerFlits)
	w.Int(n.queuedPkts)

	// Live packets.
	w.Len(len(pkts))
	for _, p := range pkts {
		w.U64(p.ID)
		w.Int(p.Src)
		w.Int(p.Dst)
		w.Int(p.Size)
		w.Int(p.VNet)
		w.U8(uint8(p.Class))
		w.U8(uint8(p.PayloadKind))
		w.Bool(p.Prio.Check)
		w.U8(p.Prio.Class)
		w.U32(uint32(p.Prio.Prog))
		w.U64(p.EnqueuedAt)
		w.U64(p.InjectedAt)
		w.U64(p.DeliveredAt)
		w.Int(p.Hops)
		if p.PayloadKind != PayloadNone {
			if err := savePayload(w, p.PayloadKind, p.PayloadRef); err != nil {
				return fmt.Errorf("noc: packet %d payload: %w", p.ID, err)
			}
		}
	}

	// Loopback deliveries (appended in increasing `at` order).
	w.Len(len(n.loopback))
	for _, ev := range n.loopback {
		w.U32(uint32(pktIdx[ev.pkt]))
		w.U64(ev.at)
	}

	// The wheel: its base cycle, then its flits, credits and ejections,
	// each list in due-cycle order and in list order within a cycle.
	wh := &n.wheel
	writeFlits := func(lists [][]flitEvent, count int) {
		w.Len(count)
		each(wh, lists, func(due uint64, ev flitEvent) {
			w.U64(due)
			w.U32(uint32(pktIdx[ev.pkt]))
			w.U32(uint32(ev.seq))
			w.U32(uint32(ev.node))
			w.U8(uint8(ev.port))
			w.U8(ev.vc)
			w.U8(uint8(ev.fate))
		})
	}
	w.U64(wh.base)
	writeFlits(wh.flits, wh.nflits)
	w.Len(wh.ncredits)
	each(wh, wh.credits, func(due uint64, ev uint32) {
		w.U64(due)
		w.U32(ev)
	})
	writeFlits(wh.ejects, wh.nejects)

	// Routers: pipeline state per input VC (occupied ring windows only),
	// output credit/allocation state, arbitration pointers, counters.
	w.Len(len(n.Routers))
	for _, rt := range n.Routers {
		w.U64(rt.Stats.FlitsTraversed)
		w.U64(rt.Stats.VAGrants)
		w.U64(rt.Stats.SAGrants)
		w.U64(rt.Stats.SAConflicts)
		for d := Dir(0); d < NumDirs; d++ {
			op := &rt.out[d]
			w.Int(op.vaPtr)
			w.Int(op.saPtr)
			for _, c := range op.credits {
				w.Int(int(c))
			}
			for _, a := range op.alloc {
				w.Bool(a)
			}
		}
		if rt.in == nil {
			w.Raw(n.freshVCRecord())
		} else {
			rt.snapshotVCs(w, pktIdx)
		}
	}

	// NIs: injection credit/VC state, per-vnet wait queues and active
	// streams, statistics.
	w.Len(len(n.NIs))
	for _, ni := range n.NIs {
		for _, c := range ni.outCredits {
			w.Int(int(c))
		}
		for _, a := range ni.outAlloc {
			w.Bool(a)
		}
		for vn := 0; vn < NumVNets; vn++ {
			w.Len(len(ni.queues[vn]))
			for _, p := range ni.queues[vn] {
				w.U32(uint32(pktIdx[p]))
			}
			st := &ni.active[vn]
			w.Bool(st.pkt != nil)
			if st.pkt != nil {
				w.U32(uint32(pktIdx[st.pkt]))
				w.Int(st.next)
				w.Int(st.vc)
			}
		}
		for _, v := range ni.Injected {
			w.U64(v)
		}
		for _, v := range ni.Delivered {
			w.U64(v)
		}
		w.U64(ni.FlitsSent)
		w.Int(ni.QueuedPkts)
	}
	w.End()
	return nil
}

// RestoreFrom overwrites a freshly constructed network's dynamic state
// with a snapshot written by SnapshotTo under the same configuration.
// Packets are re-interned into the fresh packet slab (canonical
// re-pooling); payload refs are resolved through loadPayload. Every value
// the run later indexes a table with or routes by is bounds-checked, so a
// corrupt snapshot fails here rather than panicking mid-run. Derived
// state — per-router flit counts and masks, the activity counters and the
// hierarchical bitmaps — is recomputed from the restored ground truth and
// verified against the snapshot's totals.
func (n *Network) RestoreFrom(r *checkpoint.Reader, loadPayload PayloadLoader) error {
	nodes := n.Cfg.Nodes()
	r.Begin("noc")
	for i := range n.Stats.InjectedPkts {
		n.Stats.InjectedPkts[i] = r.U64()
	}
	for i := range n.Stats.DeliveredPkts {
		n.Stats.DeliveredPkts[i] = r.U64()
	}
	n.Stats.InjectedFlits = r.U64()
	n.Stats.LocalDeliveries = r.U64()
	for c := 0; c < NumClasses; c++ {
		n.Stats.NetLatency[c].RestoreFrom(r)
		n.Stats.TotalLatency[c].RestoreFrom(r)
	}
	n.pktID = r.U64()
	wantActivity := r.Int()
	wantRouterFlits := r.Int()
	wantQueuedPkts := r.Int()

	np := r.Len()
	if r.Err() != nil {
		return r.Err()
	}
	pkts := make([]*Packet, np)
	for i := 0; i < np; i++ {
		ref, p := n.pktSlab.Alloc()
		p.ID = r.U64()
		p.Src = r.Int()
		p.Dst = r.Int()
		p.Size = r.Int()
		p.VNet = r.Int()
		p.Class = Class(r.U8())
		p.PayloadKind = PayloadKind(r.U8())
		p.Prio.Check = r.Bool()
		p.Prio.Class = r.U8()
		p.Prio.Prog = uint16(r.U32())
		p.EnqueuedAt = r.U64()
		p.InjectedAt = r.U64()
		p.DeliveredAt = r.U64()
		p.Hops = r.Int()
		p.poolRef = ref
		if err := r.Err(); err != nil {
			return err
		}
		if err := n.checkPacket(p); err != nil {
			return err
		}
		if p.PayloadKind != PayloadNone {
			if loadPayload == nil {
				return fmt.Errorf("noc: packet %d has payload kind %d but no payload loader", p.ID, p.PayloadKind)
			}
			newRef, err := loadPayload(r, p.PayloadKind)
			if err != nil {
				return fmt.Errorf("noc: packet %d payload: %w", p.ID, err)
			}
			p.PayloadRef = newRef
		}
		pkts[i] = p
	}
	var pktErr error
	pkt := func(i uint32) *Packet {
		if int(i) >= len(pkts) {
			if pktErr == nil {
				pktErr = fmt.Errorf("noc: packet index %d out of range (%d live)", i, len(pkts))
			}
			return nil
		}
		return pkts[i]
	}
	// flit resolves a flit reference: packet index and sequence number.
	flit := func(i, seq uint32) (*Packet, int32, error) {
		p := pkt(i)
		if p == nil {
			return nil, 0, pktErr
		}
		if int(seq) >= p.Size {
			return nil, 0, fmt.Errorf("noc: flit %d of packet %d, size %d", seq, p.ID, p.Size)
		}
		return p, int32(seq), nil
	}

	nl := r.Len()
	n.loopback = n.loopback[:0]
	for i := 0; i < nl && r.Err() == nil; i++ {
		p := pkt(r.U32())
		at := r.U64()
		n.loopback = append(n.loopback, loopbackEvent{pkt: p, at: at})
	}

	if err := n.restoreWheel(r, flit); err != nil {
		return err
	}

	nr := r.Len()
	if r.Err() == nil && nr != len(n.Routers) {
		return fmt.Errorf("noc: snapshot has %d routers, mesh %d", nr, len(n.Routers))
	}
	depth := n.Cfg.VCDepth
	for _, rt := range n.Routers {
		rt.Stats.FlitsTraversed = r.U64()
		rt.Stats.VAGrants = r.U64()
		rt.Stats.SAGrants = r.U64()
		rt.Stats.SAConflicts = r.U64()
		for d := Dir(0); d < NumDirs; d++ {
			op := &rt.out[d]
			op.vaPtr = r.Index(n.perRouter + 1)
			op.saPtr = r.Index(n.perRouter + 1)
			for v := range op.credits {
				op.credits[v] = int32(r.Index(depth + 1))
			}
			for v := range op.alloc {
				op.alloc[v] = r.Bool()
			}
		}
		if rt.in == nil && r.Consume(n.freshVCRecord()) {
			continue // never buffered a flit: the router stays unbuilt
		}
		if err := rt.restoreVCs(r, pkt); err != nil {
			return err
		}
	}

	nn := r.Len()
	if r.Err() == nil && nn != len(n.NIs) {
		return fmt.Errorf("noc: snapshot has %d NIs, mesh %d", nn, len(n.NIs))
	}
	for _, ni := range n.NIs {
		if err := ni.restore(r, pkt, flit); err != nil {
			return err
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return err
	}
	if pktErr != nil {
		return pktErr
	}

	// Recompute derived state from the restored ground truth.
	n.routerActive = newActSet(nodes)
	n.niInject = newActSet(nodes)
	n.activity = n.wheel.nflits + n.wheel.ncredits + n.wheel.nejects + len(n.loopback)
	n.routerFlits = 0
	n.queuedPkts = 0
	for i, rt := range n.Routers {
		rt.recomputeDerived()
		n.routerFlits += rt.flitCount
		n.activity += rt.flitCount
		if rt.flitCount > 0 {
			n.routerActive.set(i)
		}
	}
	for i, ni := range n.NIs {
		n.queuedPkts += ni.QueuedPkts
		n.activity += ni.QueuedPkts
		if ni.QueuedPkts > 0 {
			n.niInject.set(i)
		}
	}
	if n.activity != wantActivity || n.routerFlits != wantRouterFlits || n.queuedPkts != wantQueuedPkts {
		return fmt.Errorf("noc: restored activity (%d/%d/%d) disagrees with snapshot (%d/%d/%d)",
			n.activity, n.routerFlits, n.queuedPkts, wantActivity, wantRouterFlits, wantQueuedPkts)
	}
	if n.faults != nil {
		n.resetLastDue()
	}
	return nil
}

// checkPacket rejects a restored packet whose fields the run would route
// or index by out of range: endpoints off the mesh, an unknown class or
// virtual network, or a size outside [1, MaxPacketFlits].
func (n *Network) checkPacket(p *Packet) error {
	nodes := n.Cfg.Nodes()
	switch {
	case p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes:
		return fmt.Errorf("noc: packet %d: endpoints %d->%d outside the %d-node mesh", p.ID, p.Src, p.Dst, nodes)
	case p.Class >= NumClasses:
		return fmt.Errorf("noc: packet %d: class %d", p.ID, p.Class)
	case p.VNet < 0 || p.VNet >= NumVNets:
		return fmt.Errorf("noc: packet %d: virtual network %d", p.ID, p.VNet)
	case p.Size < 1 || p.Size > MaxPacketFlits:
		return fmt.Errorf("noc: packet %d: size %d flits outside [1, %d]", p.ID, p.Size, MaxPacketFlits)
	}
	return nil
}

// restoreWheel reads the wheel SnapshotTo wrote into the fresh wheel,
// rejecting an event that is due outside the wheel's span, a flit for a
// router port with no link, an ejection for any port but an NI's, a VC,
// fate or flit that does not exist, or a credit for a VC no linked router
// port or NI has.
func (n *Network) restoreWheel(r *checkpoint.Reader, flit func(i, seq uint32) (*Packet, int32, error)) error {
	w := &n.wheel
	w.base = r.U64()
	inSpan := func(due uint64) error {
		if due-w.base >= w.span() {
			return fmt.Errorf("noc: wheel event due at cycle %d, outside [%d, %d)", due, w.base, w.base+w.span())
		}
		return nil
	}
	readFlits := func(push func(uint64, flitEvent), eject bool) error {
		nf := r.Len()
		for i := 0; i < nf && r.Err() == nil; i++ {
			due := r.U64()
			pi, seq := r.U32(), r.U32()
			node, port, vc, f := r.U32(), Dir(r.U8()), r.U8(), fate(r.U8())
			if r.Err() != nil {
				break
			}
			if err := inSpan(due); err != nil {
				return err
			}
			p, sq, err := flit(pi, seq)
			if err != nil {
				return err
			}
			if int(node) >= n.Cfg.Nodes() || port < 0 || port >= NumDirs || !n.Cfg.linked(int(node), port) ||
				eject && port != Local || int(vc) >= n.Cfg.VCs || f >= numFates {
				return fmt.Errorf("noc: wheel flit for node %d port %d vc %d with fate %d (ejection: %v)", node, port, vc, f, eject)
			}
			push(due, flitEvent{pkt: p, seq: sq, node: int32(node), port: port, vc: vc, fate: f})
		}
		return r.Err()
	}
	if err := readFlits(w.pushFlit, false); err != nil {
		return err
	}
	nc := r.Len()
	for i := 0; i < nc && r.Err() == nil; i++ {
		due, ev := r.U64(), r.U32()
		if r.Err() != nil {
			break
		}
		if err := inSpan(due); err != nil {
			return err
		}
		idx := int(ev >> 1)
		if idx >= len(n.credits) || idx < n.niBase && !n.Cfg.linked(idx/n.perRouter, Dir(idx%n.perRouter/n.Cfg.VCs)) {
			return fmt.Errorf("noc: wheel credit for VC %d of %d, or of a router port with no link", idx, len(n.credits))
		}
		w.pushCredit(due, ev)
	}
	return readFlits(w.pushEject, true)
}

// restore reads the NI record SnapshotTo wrote, rejecting a stream that
// names a VC or flit that does not exist, and a queued-packet count that
// disagrees with the queues and streams.
func (ni *NI) restore(r *checkpoint.Reader, pkt func(uint32) *Packet, flit func(i, seq uint32) (*Packet, int32, error)) error {
	depth, vcs := ni.cfg.VCDepth, ni.cfg.VCs
	for v := range ni.outCredits {
		ni.outCredits[v] = int32(r.Index(depth + 1))
	}
	for v := range ni.outAlloc {
		ni.outAlloc[v] = r.Bool()
	}
	queued := 0
	for vn := 0; vn < NumVNets; vn++ {
		nq := r.Len()
		ni.queues[vn] = ni.queues[vn][:0]
		for i := 0; i < nq && r.Err() == nil; i++ {
			ni.queues[vn] = append(ni.queues[vn], pkt(r.U32()))
		}
		queued += nq
		ni.active[vn] = activeStream{}
		if r.Bool() {
			p, next, err := flit(r.U32(), uint32(r.Int()))
			if err != nil && r.Err() == nil {
				return err
			}
			ni.active[vn] = activeStream{pkt: p, next: int(next), vc: r.Index(vcs)}
			queued++
		}
	}
	for i := range ni.Injected {
		ni.Injected[i] = r.U64()
	}
	for i := range ni.Delivered {
		ni.Delivered[i] = r.U64()
	}
	ni.FlitsSent = r.U64()
	ni.QueuedPkts = r.Int()
	if r.Err() == nil && ni.QueuedPkts != queued {
		return fmt.Errorf("noc: NI %d counts %d queued packets, holds %d", ni.node, ni.QueuedPkts, queued)
	}
	return r.Err()
}

// snapshotVCs writes the router's input VC records: each VC's pipeline
// state and its buffered flits, oldest first.
func (r *Router) snapshotVCs(w *checkpoint.Writer, pktIdx map[*Packet]int32) {
	for i := range r.in {
		vc := &r.in[i]
		w.U8(uint8(vc.state))
		w.U8(uint8(vc.outDir))
		w.U8(vc.outVC)
		w.Int(int(vc.n))
		ring := r.ring(i)
		for k := 0; k < int(vc.n); k++ {
			j := int(vc.hd) + k
			if j >= len(ring) {
				j -= len(ring)
			}
			w.U32(uint32(pktIdx[vc.pkt]))
			w.Int(int(vc.seq) + k)
			w.U64(ring[j])
		}
	}
}

// restoreVCs reads the records snapshotVCs wrote, building the router's
// input VCs first if need be. It rejects a VC whose flits are not
// consecutive flits of one packet: the VC record stores the packet once.
func (r *Router) restoreVCs(cr *checkpoint.Reader, pkt func(uint32) *Packet) error {
	if r.in == nil {
		r.build()
	}
	for i := range r.in {
		vc := &r.in[i]
		*vc = vcBuf{state: vcState(cr.U8()), outDir: Dir(cr.U8()), outVC: cr.U8()}
		cnt := cr.Int()
		if cr.Err() != nil {
			return cr.Err()
		}
		if vc.state > vcActive || vc.outDir < 0 || vc.outDir >= NumDirs || int(vc.outVC) >= r.vcs ||
			vc.state != vcIdle && !r.cfg.linked(r.id, vc.outDir) {
			return fmt.Errorf("noc: router %d vc %d in state %d toward port %d vc %d", r.id, i, vc.state, vc.outDir, vc.outVC)
		}
		if cnt < 0 || cnt > r.depth {
			return fmt.Errorf("noc: router %d vc %d holds %d flits, depth %d", r.id, i, cnt, r.depth)
		}
		// Normalize the ring to hd=0; slots beyond the occupied window are
		// never read, so their contents don't matter.
		ring := r.ring(i)
		for k := 0; k < cnt; k++ {
			p, seq := pkt(cr.U32()), cr.Int()
			ring[k] = cr.U64()
			if cr.Err() != nil {
				return cr.Err()
			}
			if p == nil {
				return fmt.Errorf("noc: router %d vc %d flit %d names no live packet", r.id, i, k)
			}
			if k == 0 {
				if seq < 0 || seq+cnt > p.Size || p.Size > MaxPacketFlits {
					return fmt.Errorf("noc: router %d vc %d holds flits %d..%d of packet %d, size %d",
						r.id, i, seq, seq+cnt-1, p.ID, p.Size)
				}
				vc.pkt, vc.seq = p, int32(seq)
			} else if p != vc.pkt || seq != int(vc.seq)+k {
				return fmt.Errorf("noc: router %d vc %d holds flit %d of packet %d behind flit %d of packet %d",
					r.id, i, seq, p.ID, int(vc.seq)+k-1, vc.pkt.ID)
			}
		}
		if cnt > 0 {
			vc.n = int16(cnt)
			vc.headEnq = ring[0]
			vc.headKey = vc.pkt.Prio.Key()
			vc.headVNet = uint8(vc.pkt.VNet)
		}
	}
	return nil
}

// freshVCRecord returns the VC records of a router that never buffered a
// flit, encoded once. An unbuilt router writes exactly these bytes, and a
// restore builds a router only for records that differ, so snapshot bytes
// do not depend on which routers built their buffers.
func (n *Network) freshVCRecord() []byte {
	if n.freshVCs == nil {
		w := checkpoint.NewWriter()
		fresh := Router{vcs: n.Cfg.VCs, depth: n.Cfg.VCDepth}
		fresh.build()
		fresh.snapshotVCs(w, nil)
		n.freshVCs = w.Snapshot().Data
	}
	return n.freshVCs
}

// recomputeDerived rebuilds the router's counters and per-port masks from
// the restored VC states: flit totals per port, routed/active VC counts
// and the bit masks the allocators iterate.
func (r *Router) recomputeDerived() {
	r.flitCount = 0
	r.routedCount = 0
	r.activeCount = 0
	for d := Dir(0); d < NumDirs; d++ {
		r.portFlits[d] = 0
		r.routedMask[d] = 0
		r.activeMask[d] = 0
	}
	for i := range r.in {
		vc := &r.in[i]
		d := Dir(i / r.vcs)
		v := uint(i % r.vcs)
		r.flitCount += int(vc.n)
		r.portFlits[d] += int(vc.n)
		switch vc.state {
		case vcRouted:
			r.routedCount++
			r.routedMask[d] |= 1 << v
		case vcActive:
			r.activeCount++
			r.activeMask[d] |= 1 << v
		}
	}
}
