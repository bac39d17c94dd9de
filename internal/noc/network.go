package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim"
)

// Stats aggregates network-wide measurements.
type Stats struct {
	InjectedPkts  [NumClasses]uint64
	DeliveredPkts [NumClasses]uint64
	InjectedFlits uint64
	// Latency histograms per class (injection to delivery, cycles).
	NetLatency [NumClasses]obs.LogHist
	// Source queueing + network latency per class.
	TotalLatency [NumClasses]obs.LogHist
	// LocalDeliveries counts src==dst messages that bypassed the mesh.
	LocalDeliveries uint64
}

// Network is a complete mesh NoC instance: routers, NIs and the links
// between them. It implements sim.Component; one Tick advances every
// router and NI by one cycle in a deterministic phase order.
type Network struct {
	Cfg     Config
	Routers []*Router
	NIs     []*NI

	Stats Stats

	pktID uint64
	// localDelay is the latency charged to src==dst messages that never
	// enter the mesh (NI loopback).
	localDelay uint64
	loopback   []loopbackEvent

	// activity counts every unit of in-flight work: link events (flits and
	// credits), router-buffered flits, NI packets (waiting or streaming) and
	// pending loopback deliveries. Sends, routers and NIs all update it,
	// making Busy O(1) instead of an O(nodes) scan.
	activity int
	// wheel holds the router-bound link events (see link.go).
	wheel wheel
	// Sub-counts of activity gating individual Tick phases: NI-bound
	// link events (phase 2), router-buffered flits (phase 4) and NI-queued
	// packets (phase 5). A phase whose count is zero is a provable no-op.
	niEvents    int
	routerFlits int
	queuedPkts  int
	// routerActive marks routers holding buffered flits (bit i = router i);
	// the allocation phase iterates exactly those instead of touching all
	// Routers every cycle. Routers maintain their own bit as flitCount
	// crosses zero. niActive and niInject do the same for the NI phases:
	// bit i means NI i holds undelivered link events / queued packets.
	// All three are hierarchical (see actSet): a summary word over the
	// activity words lets giant meshes skip idle 64-node blocks wholesale.
	routerActive actSet
	niActive     actSet
	niInject     actSet
	// waker, when set, is notified on Send so an event-driven engine learns
	// the network has work without polling it.
	waker sim.Waker

	// routerSlab holds the routers Routers points into; the wheel drain
	// indexes it directly. step[d] is the node-id offset of the neighbour
	// one hop in direction d, and perRouter the router VCs per node: the
	// credit arena (credits, vcAlloc) holds router i's output VCs at
	// [i*perRouter, (i+1)*perRouter).
	routerSlab []Router
	step       [NumDirs]int
	perRouter  int
	credits    []int32
	vcAlloc    []bool

	scratchF  []niFlit
	scratchC  []niCredit
	scratchLB []loopbackEvent
	// alloc is the VA/SA scratch every router's tick shares.
	alloc allocScratch

	// faults, when non-nil, is the attached fault injector (SetFaults).
	// It decides every flit's fate at send time, and lastDue holds, per
	// receiving router port (node*NumDirs + port), the due cycle of the
	// last flit its link carried: the FIFO clamp of sendFaulted.
	faults  *fault.Injector
	lastDue []uint64

	// freshVCs caches freshVCRecord: the checkpoint encoding of the input
	// VC records of a router that never buffered a flit.
	freshVCs []byte

	// pktSlab recycles Packets: NewPacket draws from it and FreePacket
	// (called by the consumer once the packet is fully processed) returns
	// them. The LIFO freelist is deterministic, so reuse order depends only
	// on the simulation's own alloc/free sequence.
	pktSlab pool.Slab[Packet]
}

type loopbackEvent struct {
	pkt *Packet
	at  uint64
}

// NewNetwork builds the mesh described by cfg.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Cfg: cfg, localDelay: 2}
	nodes := cfg.Nodes()
	n.Routers = make([]*Router, nodes)
	n.NIs = make([]*NI, nodes)
	n.routerActive = newActSet(nodes)
	n.niActive = newActSet(nodes)
	n.niInject = newActSet(nodes)
	n.wheel = newWheel(cfg.LinkLatency)
	n.step = [NumDirs]int{North: -cfg.Width, East: 1, South: cfg.Width, West: -1}
	// Structure-of-arrays state: routers, NIs and the per-VC credit and
	// allocation arrays live in node-major arenas instead of per-object
	// allocations, so the bytes one tick phase sweeps are contiguous.
	// Routers/NIs stay exposed as []*Router / []*NI pointing into the
	// slabs. Input VC records and their rings are not allocated here: each
	// router builds its own on its first buffered flit.
	n.routerSlab = make([]Router, nodes)
	niSlab := make([]NI, nodes)
	n.perRouter = int(NumDirs) * cfg.VCs
	n.credits = make([]int32, nodes*n.perRouter)
	n.vcAlloc = make([]bool, nodes*n.perRouter)
	niCreditArena := make([]int32, nodes*cfg.VCs)
	niAllocArena := make([]bool, nodes*cfg.VCs)
	for i := 0; i < nodes; i++ {
		initRouter(&n.routerSlab[i], n, i, n.credits[i*n.perRouter:], n.vcAlloc[i*n.perRouter:])
		n.Routers[i] = &n.routerSlab[i]
		initNI(&niSlab[i], n, i, niCreditArena[i*cfg.VCs:], niAllocArena[i*cfg.VCs:])
		niSlab[i].onDeliver = n.recordDelivery
		n.NIs[i] = &niSlab[i]
	}
	return n, nil
}

// MustNetwork is NewNetwork that panics on configuration errors; intended
// for tests and examples.
func MustNetwork(cfg Config) *Network {
	n, err := NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// SetSink registers the delivery callback for a node.
func (n *Network) SetSink(node int, fn func(now uint64, pkt *Packet)) {
	n.NIs[node].SetSink(fn)
}

// SetObserver attaches a structured-event recorder to every router and NI
// (nil detaches). Loopback (src==dst) messages bypass the mesh and are not
// recorded. All emission sites are read-only, so simulation results are
// identical with or without a recorder.
func (n *Network) SetObserver(r *obs.Recorder) {
	for _, rt := range n.Routers {
		rt.obs = r
	}
	for _, ni := range n.NIs {
		ni.obs = r
	}
}

// newPacket draws a packet from the slab and fully resets it — every
// field is overwritten, so a recycled packet is indistinguishable from a
// fresh one and determinism cannot depend on the pool. Size is derived
// from the class: data packets use Cfg.DataPacketFlits, everything else
// one flit.
func (n *Network) newPacket(src, dst int, class Class, vnet int) *Packet {
	n.pktID++
	size := 1
	if class == ClassData {
		size = n.Cfg.DataPacketFlits
	}
	ref, pkt := n.pktSlab.Alloc()
	*pkt = Packet{
		ID:      n.pktID,
		Src:     src,
		Dst:     dst,
		Size:    size,
		VNet:    vnet,
		Class:   class,
		poolRef: ref,
	}
	return pkt
}

// NewPacket allocates a packet with a fresh id carrying an untyped
// payload. Protocol hot paths use NewPacketRef instead.
func (n *Network) NewPacket(src, dst int, class Class, vnet int, payload any) *Packet {
	pkt := n.newPacket(src, dst, class, vnet)
	pkt.Payload = payload
	return pkt
}

// NewPacketRef allocates a packet with a fresh id carrying a typed payload
// reference — the sending subsystem's slab ref — instead of a boxed
// Payload value.
func (n *Network) NewPacketRef(src, dst int, class Class, vnet int, kind PayloadKind, ref uint32) *Packet {
	pkt := n.newPacket(src, dst, class, vnet)
	pkt.PayloadKind = kind
	pkt.PayloadRef = ref
	return pkt
}

// FreePacket recycles a delivered packet. The consumer (the platform's
// delivery sink, or a test's) calls it once the packet and its payload are
// fully processed. Freeing the same packet twice panics.
func (n *Network) FreePacket(pkt *Packet) { n.pktSlab.Free(pkt.poolRef) }

// PoolStats reports the packet slab's counters: total allocations, how
// many were served from the freelist, frees, and packets still live.
func (n *Network) PoolStats() (allocs, reuses, frees uint64, live int) {
	return n.pktSlab.Allocs, n.pktSlab.Reuses, n.pktSlab.Frees, n.pktSlab.Live()
}

// Send enqueues pkt for injection at its source NI. Messages addressed to
// the local node bypass the mesh with a small fixed loopback latency.
func (n *Network) Send(now uint64, pkt *Packet) {
	if pkt.Src < 0 || pkt.Src >= n.Cfg.Nodes() || pkt.Dst < 0 || pkt.Dst >= n.Cfg.Nodes() {
		panic(fmt.Sprintf("noc: Send with bad endpoints %d->%d", pkt.Src, pkt.Dst))
	}
	n.Stats.InjectedPkts[pkt.Class]++
	n.Stats.InjectedFlits += uint64(pkt.Size)
	if pkt.Src == pkt.Dst {
		pkt.EnqueuedAt = now
		pkt.InjectedAt = now
		n.loopback = append(n.loopback, loopbackEvent{pkt: pkt, at: now + n.localDelay})
		n.activity++
	} else {
		if n.faults != nil && pkt.Class == ClassLock {
			// Header-corruption fault: the RTR/PROG priority bits of a
			// locking-request header are overwritten before the NI stamps
			// them into the head flit. Arbitration must tolerate arbitrary
			// (even out-of-range) header values.
			if p, ok := n.faults.CorruptPriority(pkt.ID, pkt.Prio); ok {
				pkt.Prio = p
			}
		}
		n.NIs[pkt.Src].enqueue(now, pkt)
	}
	if n.waker != nil {
		n.waker.Wake(now + 1)
	}
}

// SetWaker implements sim.WakeSetter: the network pushes a wake
// notification on every Send instead of being polled each cycle.
func (n *Network) SetWaker(w sim.Waker) { n.waker = w }

// Tick implements sim.Component.
func (n *Network) Tick(now uint64) {
	// Phase 1: commit the router-bound link events due by this cycle into
	// router buffers and router credit state.
	n.drainWheel(now)
	// Phase 2: NI eject/credit absorption, in node order.
	if n.niEvents > 0 {
		n.drainNIs(now)
	}
	// Phase 3: loopback deliveries.
	n.deliverLoopback(now)
	// Phase 4: router allocation and traversal. Summary-then-word bit
	// iteration visits the flit-holding routers in ascending id order — the
	// same order as a full scan (tick order is invisible anyway: routers
	// only interact through link events committed in later cycles). A
	// ticking router can only clear its own bit, never set another's, so
	// iterating summary and word snapshots is safe.
	if n.routerFlits > 0 {
		for sw, sword := range n.routerActive.sum {
			for ; sword != 0; sword &= sword - 1 {
				w := sw<<6 | bits.TrailingZeros64(sword)
				for word := n.routerActive.words[w]; word != 0; word &= word - 1 {
					n.routerSlab[w<<6|bits.TrailingZeros64(word)].tick(now, &n.alloc)
				}
			}
		}
	}
	// Phase 5: NI injection. NIs maintain their own niInject bit as
	// QueuedPkts crosses zero, so bit set ⟺ QueuedPkts > 0 and the
	// iteration visits exactly the NIs the full scan would, in the same
	// ascending order. inject never enqueues on another NI.
	if n.queuedPkts > 0 {
		for sw, sword := range n.niInject.sum {
			for ; sword != 0; sword &= sword - 1 {
				w := sw<<6 | bits.TrailingZeros64(sword)
				for word := n.niInject.words[w]; word != 0; word &= word - 1 {
					n.NIs[w<<6|bits.TrailingZeros64(word)].inject(now)
				}
			}
		}
	}
}

// drainNIs is Tick phase 2: NIs eject arrived flits and absorb credit
// returns, in node order (delivery callbacks are order-sensitive; bit
// iteration is ascending, so the order is the same as the full scan's). A
// bit stays set while its queues hold events — including future-dated
// ones — and is cleared only here, once both drain; sends during this
// phase go onto the wheel, so no bit is set mid-iteration.
func (n *Network) drainNIs(now uint64) {
	for sw, sword := range n.niActive.sum {
		for ; sword != 0; sword &= sword - 1 {
			w := sw<<6 | bits.TrailingZeros64(sword)
			for word := n.niActive.words[w]; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				ni := n.NIs[i]
				if len(ni.inFlits) > 0 {
					ni.eject(now)
				}
				if len(ni.inCredits) > 0 {
					ni.commitCredits(now)
				}
				if len(ni.inFlits) == 0 && len(ni.inCredits) == 0 {
					n.niActive.clear(i)
				}
			}
		}
	}
}

// deliverLoopback is Tick phase 3: src==dst deliveries that bypassed the
// mesh. The due prefix is copied out first: sinks may send new loopback
// packets while we iterate.
func (n *Network) deliverLoopback(now uint64) {
	if len(n.loopback) == 0 || n.loopback[0].at > now {
		return
	}
	k := 0
	for k < len(n.loopback) && n.loopback[k].at <= now {
		k++
	}
	n.scratchLB = append(n.scratchLB[:0], n.loopback[:k]...)
	n.loopback = n.loopback[:copy(n.loopback, n.loopback[k:])]
	n.activity -= k
	for _, ev := range n.scratchLB {
		ev.pkt.DeliveredAt = now
		n.Stats.LocalDeliveries++
		n.recordDelivery(ev.pkt)
		if sink := n.NIs[ev.pkt.Dst].sink; sink != nil {
			sink(now, ev.pkt)
		}
	}
}

func (n *Network) recordDelivery(pkt *Packet) {
	n.Stats.DeliveredPkts[pkt.Class]++
	n.Stats.NetLatency[pkt.Class].Observe(pkt.NetLatency())
	n.Stats.TotalLatency[pkt.Class].Observe(pkt.TotalLatency())
}

// NextWake implements sim.Component: the network needs ticking while any
// flit, credit or queued packet exists anywhere. The answer is the exact
// next event cycle, which lets the engine's min-heap jump the clock across
// idle windows — e.g. the LinkLatency-1 dead cycles of every hop of a
// lone packet crossing a giant, otherwise-quiet mesh — instead of ticking
// the network through provable no-ops.
func (n *Network) NextWake(now uint64) uint64 {
	if !n.Busy() {
		return sim.Never
	}
	return n.NextEventCycle(now)
}

// NextEventCycle returns the earliest cycle > now at which the network has
// due work, or sim.Never when it is fully quiescent. It is exact, which is
// what makes skipping safe: a Tick at any cycle before the returned one is
// a provable no-op, so the skipped and unskipped simulations are
// byte-identical (the signature matrix holds both engines to that).
//
// Case analysis over the activity the counter tracks:
//   - buffered router flits or queued NI packets: the router/injection
//     phases may act every cycle (allocation depends on credit state that
//     is expensive to predict), so answer conservatively with now+1 —
//     these phases are also the busy case where skipping buys nothing.
//   - router-bound flit events: the earliest flit slot of the wheel
//     bounds when work exists — and the wake is that cycle + 1, a
//     deliberate one-cycle-lazy drain. Committing a router-bound flit one
//     cycle late is invisible: commit stamps the slot's cycle, so the
//     flit's staging eligibility is unchanged; an eligible flit could
//     anyway act no earlier than its arrival + 1 (allocation requires now
//     > arrival); and a credit committed a cycle late can only be read by
//     the allocators of a router holding flits, which forces the now+1
//     answer above and so excludes any deferral. Folding the arrival
//     commit into the cycle the flit first acts halves the executed
//     cycles of an uncontended hop.
//   - credit events (router- or NI-bound): fully shadowed. Credit state
//     is only ever read by the VA/SA allocators of a router holding flits
//     and by an NI with queued packets, and either reader forces the
//     per-cycle now+1 answer above — so while credits alone remain,
//     nothing can observe when they commit. Pending credits therefore
//     contribute a single deferred horizon, the latest credit's due cycle
//     (the wheel's latest credit slot; an NI's queue is nondecreasing, so
//     its last element's), letting one wake commit every credit at once
//     instead of one wake per batch. Any earlier flit-driven tick still
//     commits the due credits first (Tick phase 1 precedes the router
//     phase), so a reader that does appear sees exactly the eager-drain
//     credit state.
//   - NI-bound flit events (found through the niActive hierarchy): exact
//     head `at`. Ejection timing is externally visible (delivery
//     callbacks, DeliveredAt), so these are never deferred.
//   - loopback deliveries: the queue is appended in increasing `at` order,
//     so its head is the next delivery; delivery timing is visible, so it
//     is exact as well.
//
// New external work always arrives through Send, which pushes a Wake
// notification, so a returned horizon can only be invalidated in the
// engine-visible way the Waker contract already handles.
func (n *Network) NextEventCycle(now uint64) uint64 {
	if !n.Busy() {
		return sim.Never
	}
	floor := now + 1
	if n.routerFlits > 0 || n.queuedPkts > 0 {
		return floor
	}
	next := uint64(sim.Never)
	if len(n.loopback) > 0 {
		next = n.loopback[0].at
	}
	if n.wheel.nflits > 0 {
		next = min(next, n.wheel.firstFlit()+1)
	}
	var creditHorizon uint64
	if n.wheel.ncredits > 0 {
		creditHorizon = n.wheel.lastCredit()
	}
	if n.niEvents > 0 {
		for sw, sword := range n.niActive.sum {
			for ; sword != 0; sword &= sword - 1 {
				w := sw<<6 | bits.TrailingZeros64(sword)
				for word := n.niActive.words[w]; word != 0; word &= word - 1 {
					ni := n.NIs[w<<6|bits.TrailingZeros64(word)]
					if fs := ni.inFlits; len(fs) > 0 && fs[0].at < next {
						next = fs[0].at
					}
					if cs := ni.inCredits; len(cs) > 0 && cs[len(cs)-1].at > creditHorizon {
						creditHorizon = cs[len(cs)-1].at
					}
				}
			}
		}
	}
	if next == sim.Never && creditHorizon > 0 {
		// Only shadowed credits remain: one wake, at the horizon, drains
		// them all and lets Busy go quiescent.
		next = creditHorizon
	}
	if next < floor {
		next = floor
	}
	return next
}

// Busy reports whether any traffic is in flight. It reads the maintained
// activity counter, so it is O(1); scanBusy is the reference O(nodes)
// implementation kept for cross-checking in tests.
func (n *Network) Busy() bool {
	if n.activity < 0 {
		panic(fmt.Sprintf("noc: activity counter went negative (%d)", n.activity))
	}
	return n.activity > 0
}

// scanBusy recomputes Busy by walking every router, NI and wheel slot.
// Tests assert it always agrees with the incremental counter.
func (n *Network) scanBusy() bool {
	if len(n.loopback) > 0 {
		return true
	}
	for _, r := range n.Routers {
		if r.flitCount > 0 {
			return true
		}
	}
	for _, ni := range n.NIs {
		if ni.pendingWork() || len(ni.inFlits) > 0 || len(ni.inCredits) > 0 {
			return true
		}
	}
	for i := range n.wheel.flits {
		if len(n.wheel.flits[i]) > 0 || len(n.wheel.credits[i]) > 0 {
			return true
		}
	}
	return false
}

// Delivered returns total delivered packets across classes.
func (n *Network) Delivered() uint64 {
	var t uint64
	for _, v := range n.Stats.DeliveredPkts {
		t += v
	}
	return t
}

// Injected returns total injected packets across classes.
func (n *Network) Injected() uint64 {
	var t uint64
	for _, v := range n.Stats.InjectedPkts {
		t += v
	}
	return t
}
