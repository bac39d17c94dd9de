package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// vcState tracks the pipeline stage of the packet occupying an input VC.
type vcState uint8

const (
	vcIdle   vcState = iota // no packet
	vcRouted                // head flit routed, waiting for VC allocation
	vcActive                // output VC allocated, flits compete for switch
)

// vcBuf is one input virtual channel: the pipeline state of the packet it
// buffers plus its ring of arrival cycles, a VCDepth-slot window of the
// router's rings. A VC holds at most one packet at a time (head flits only
// enter idle VCs; the tail leaves the VC empty), so the buffered flits are
// always flits seq, seq+1, ... of pkt and the packet is stored here once
// instead of in every ring slot. The struct is deliberately 32 bytes —
// narrow index fields and a byte-sized direction — so a port's six VCs
// span three cache lines; the allocators sweep these records every cycle.
type vcBuf struct {
	// pkt, seq, headKey and headVNet describe the buffered packet. They are
	// set whenever a flit enters the empty VC (Router.commit), not only on
	// head flits: an active VC can drain while the rest of its packet is
	// still upstream, and a restored VC that held no flits knows no packet.
	// pkt is left stale once the VC drains; readers stay inside [hd, hd+n).
	pkt *Packet
	// headEnq mirrors the head flit's arrival cycle: the allocators test
	// staging eligibility on every VC every cycle, and reading it here
	// spares them the ring indirection on their hottest line.
	headEnq uint64
	// headKey caches pkt.Prio.Key(). A packet's priority word is immutable
	// once the NI accepts it, so the priority allocators compare this one
	// integer instead of chasing the packet pointer on every candidate scan.
	// headVNet caches pkt.VNet for the VC-range lookup in tryAssignVC.
	headKey  uint32
	seq      int32 // sequence number of the oldest buffered flit
	hd       int16 // ring index of the oldest flit
	n        int16 // occupied slots
	state    vcState
	outDir   Dir
	outVC    uint8
	headVNet uint8
}

// head returns the oldest buffered flit.
func (v *vcBuf) head() flit { return flit{pkt: v.pkt, seq: int(v.seq)} }

// push appends a flit that arrived at cycle at to the VC's ring.
func (v *vcBuf) push(ring []uint64, at uint64) {
	i := int(v.hd) + int(v.n)
	if i >= len(ring) {
		i -= len(ring)
	}
	ring[i] = at
	if v.n == 0 {
		v.headEnq = at
	}
	v.n++
}

// pop removes the oldest flit. The freed slot keeps its stale cycle: the
// census and the allocators only ever read the occupied window.
func (v *vcBuf) pop(ring []uint64) {
	v.hd++
	if int(v.hd) == len(ring) {
		v.hd = 0
	}
	v.n--
	v.seq++
	if v.n > 0 {
		v.headEnq = ring[v.hd]
	}
}

// outPort is the upstream view of a downstream input port: credit counts
// and VC allocation flags, plus the round-robin pointers used for
// tie-breaking in VA and SA at this output. Credit counters are int32 —
// they never exceed VCDepth — so a port's whole credit array fits in half
// the cache lines; both slices are carved from network-wide node-major
// arenas rather than per-router allocations.
type outPort struct {
	credits []int32
	alloc   []bool
	vaPtr   int
	saPtr   int
}

// RouterStats aggregates per-router activity counters.
type RouterStats struct {
	FlitsTraversed uint64 // flits moved through the crossbar
	VAGrants       uint64
	SAGrants       uint64
	SAConflicts    uint64 // cycles an output had >1 bidder
}

// Router is a 2-stage pipelined speculative VC router. Stage one performs
// route computation, VC allocation and switch allocation in parallel
// (a flit committed into a buffer at cycle t becomes eligible at t+1);
// stage two is switch traversal onto the output link.
type Router struct {
	cfg  *Config
	id   int
	x, y int
	// vcs and prio cache cfg.VCs and cfg.Priority: the allocators read them
	// per VC per cycle, and a direct field load avoids re-chasing the shared
	// config pointer on the hottest loops (vc() in particular). vcLo/vcHi
	// cache cfg.VCRange per virtual network so tryAssignVC skips both the
	// packet-pointer chase and the range arithmetic on every grant attempt.
	// depth caches cfg.VCDepth, the length of each VC's window of rings.
	vcs   int
	depth int
	prio  bool
	vcLo  [NumVNets]uint8
	vcHi  [NumVNets]uint8

	// in holds every input VC in one contiguous value slice (port-major:
	// port d's VCs are in[d*VCs:(d+1)*VCs], accessed via vc(d, v)), and
	// rings their arrival-cycle rings back to back (VC i's is ring(i)). The
	// allocators walk these records every cycle, so keeping them dense —
	// rather than behind per-VC pointers — is what the hot loops' cache
	// behaviour rests on. Both stay nil until the router first buffers a
	// flit (build): on a sparse giant mesh most routers never do.
	in    []vcBuf
	rings []uint64
	out   [NumDirs]outPort

	// inLink[d] carries flits arriving from direction d (credits we emit
	// travel upstream on the same link); outLink[d] carries flits we send
	// toward direction d.
	inLink  [NumDirs]*link
	outLink [NumDirs]*link

	// flitCount is the total number of buffered flits; the router is
	// skipped entirely when zero.
	flitCount int
	// portFlits counts buffered flits per input port, so allocation skips
	// empty ports without scanning their VCs.
	portFlits [NumDirs]int
	// routedMask / activeMask hold each port's VCs in the vcRouted /
	// vcActive states as bitmasks (bit v = VC v), letting the allocators
	// iterate exactly the VCs in the wanted state instead of testing all
	// of them.
	routedMask [NumDirs]uint64
	activeMask [NumDirs]uint64
	// routedCount / activeCount track how many input VCs sit in the
	// vcRouted / vcActive states, gating VA and SA respectively.
	routedCount int
	activeCount int
	// act points at the network-wide activity counter; buffered flits
	// contribute one unit each. rf mirrors flitCount into the network's
	// router-flit total, which gates the router phase of Network.Tick.
	act *int
	rf  *int
	// activeSet is the network's flit-holding-router bitmap; the router
	// keeps its bit (id) in sync as flitCount crosses zero so the router
	// phase of Network.Tick iterates only live routers.
	activeSet *actSet

	Stats RouterStats

	// obs, when non-nil, receives structured VA/SA/traversal events. Every
	// emission site is read-only: attaching a recorder cannot perturb the
	// simulation.
	obs *obs.Recorder
	// faults, when non-nil, can freeze this router for whole cycles
	// (Network.SetFaults wires it). Nil is the zero-cost default.
	faults *fault.Injector
}

type vaReq struct {
	dir Dir
	vc  int
}

type saCand struct {
	dir Dir
	vc  int
}

// allocScratch holds the VA/SA scratch buffers reused across cycles to
// avoid allocation: vaPerOut groups VA requests by output direction in a
// single input scan; vaKeys caches head-flit priority keys for the priority
// VA arbiter. The scratch lives per execution context — one for the
// sequential Network, one per shard — instead of per router, so a mesh of
// N routers carries one warm working set through the allocation sweep
// rather than N cold ones.
type allocScratch struct {
	vaPerOut [NumDirs][]vaReq
	vaKeys   []uint32
	saCands  []saCand
}

// initRouter initialises a slab-allocated Router in place. The output-port
// credit and allocation arrays (NumDirs*VCs entries each) are carved from
// the caller's network-wide node-major arenas, so consecutive routers'
// credit state is contiguous in memory; the input VCs wait for build.
func initRouter(r *Router, cfg *Config, id int, act, rf *int, activeSet *actSet,
	credits []int32, allocs []bool) {
	*r = Router{cfg: cfg, id: id, act: act, rf: rf, activeSet: activeSet,
		vcs: cfg.VCs, depth: cfg.VCDepth, prio: cfg.Priority}
	r.x, r.y = cfg.XY(id)
	for vn := 0; vn < NumVNets; vn++ {
		lo, hi := cfg.VCRange(vn)
		r.vcLo[vn], r.vcHi[vn] = uint8(lo), uint8(hi)
	}
	for d := Dir(0); d < NumDirs; d++ {
		op := &r.out[d]
		op.credits = credits[int(d)*cfg.VCs : (int(d)+1)*cfg.VCs : (int(d)+1)*cfg.VCs]
		op.alloc = allocs[int(d)*cfg.VCs : (int(d)+1)*cfg.VCs : (int(d)+1)*cfg.VCs]
		for v := range op.credits {
			op.credits[v] = int32(cfg.VCDepth)
		}
	}
}

// build allocates the input VC records and their rings, on the router's
// first buffered flit. Commit calls it, inside a shard worker during a
// fused tick; each router belongs to exactly one shard, so that is
// race-free.
func (r *Router) build() {
	r.in = make([]vcBuf, int(NumDirs)*r.vcs)
	r.rings = make([]uint64, len(r.in)*r.depth)
}

// BuffersBuilt reports whether the router has built its input buffers,
// which it does on the first flit it buffers.
func (r *Router) BuffersBuilt() bool { return r.in != nil }

// vc returns the input VC of port d at index v.
func (r *Router) vc(d Dir, v int) *vcBuf { return &r.in[int(d)*r.vcs+v] }

// ring returns input VC i's window of the arrival-cycle rings.
func (r *Router) ring(i int) []uint64 {
	lo := i * r.depth
	return r.rings[lo : lo+r.depth : lo+r.depth]
}

// route computes the dimension-order output direction for dst.
func (r *Router) route(dst int) Dir {
	dx, dy := r.cfg.XY(dst)
	if r.cfg.Routing == RoutingYX {
		switch {
		case dy > r.y:
			return South
		case dy < r.y:
			return North
		case dx > r.x:
			return East
		case dx < r.x:
			return West
		default:
			return Local
		}
	}
	switch {
	case dx > r.x:
		return East
	case dx < r.x:
		return West
	case dy > r.y:
		return South
	case dy < r.y:
		return North
	default:
		return Local
	}
}

// commit absorbs flit arrivals and credit returns due this cycle. sh, when
// non-nil, marks a parallel drain phase: the network-wide activity/flit
// counters and the shared active-router bitmap (whose 64-router words span
// shard boundaries) must not be written concurrently, so their updates are
// accumulated in the shard and applied by the commit phase in shard order.
// Everything else commit touches is owned by this router alone.
func (r *Router) commit(now uint64, fs []flitEvent, dir Dir, sh *tickShard) {
	// eff is the event's effective arrival cycle: the cycle a per-cycle
	// drain would first have committed it. Queues are FIFO but not sorted
	// by `at` — a fault-delayed event can sit ahead of earlier-due ones and
	// block them in the queue — so the effective arrival is the running
	// maximum of `at` over the batch, not the event's own stamp. On every
	// eager drain eff == now for the whole batch; it differs only when
	// fast-forward commits a router-bound head lazily (one cycle past its
	// due cycle, see NextEventCycle), and then the arrival-relative stamp
	// is exactly what keeps the lazy drain byte-identical.
	eff := uint64(0)
	for _, ev := range fs {
		if ev.at > eff {
			eff = ev.at
		}
		if ev.dup {
			// Injected duplicate: discard before touching the packet (the
			// original may have been delivered and recycled already). The
			// link-level accounting for the event was settled by the drain.
			continue
		}
		if ev.drop {
			// Injected drop, detected on arrival: discard the flit and
			// immediately credit the buffer slot it would have occupied
			// back upstream (freeing the VC on the tail), exactly what a
			// buffered flit's eventual departure would have returned. The
			// whole packet shares the fate on this link, so the input VC
			// never sees a partial train. In a parallel drain the upstream
			// side of this very link may be concurrently draining its
			// credit queue, so the send is deferred into the shard. The
			// return is timed from the effective arrival cycle, not the
			// drain cycle (see eff above).
			at := eff + uint64(r.cfg.LinkLatency)
			if sh == nil {
				r.inLink[dir].sendCredit(ev.vc, ev.f.isTail(), at)
			} else {
				sh.dropCredits = append(sh.dropCredits, dropCredit{
					l: r.inLink[dir], vc: ev.vc, freeVC: ev.f.isTail(), at: at,
				})
			}
			continue
		}
		if r.in == nil {
			r.build()
		}
		i := int(dir)*r.vcs + ev.vc
		vc := &r.in[i]
		if int(vc.n) >= r.depth {
			panic(fmt.Sprintf("noc: router %d dir %s vc %d buffer overflow", r.id, dir, ev.vc))
		}
		f := ev.f
		if vc.n == 0 {
			vc.pkt, vc.seq = f.pkt, int32(f.seq)
			vc.headKey = f.pkt.Prio.Key()
			vc.headVNet = uint8(f.pkt.VNet)
		} else if f.pkt != vc.pkt || f.seq != int(vc.seq)+int(vc.n) {
			panic(fmt.Sprintf("noc: router %d dir %s vc %d: flit %d of packet %d behind flit %d of packet %d",
				r.id, dir, ev.vc, f.seq, f.pkt.ID, int(vc.seq)+int(vc.n)-1, vc.pkt.ID))
		}
		if f.isHead() {
			if vc.state != vcIdle {
				panic(fmt.Sprintf("noc: router %d dir %s vc %d head flit into busy VC", r.id, dir, ev.vc))
			}
			vc.state = vcRouted
			vc.outDir = r.route(f.pkt.Dst)
			r.routedCount++
			r.routedMask[dir] |= 1 << uint(ev.vc)
		}
		// Stamp the effective arrival cycle (== now on every eager drain):
		// the allocators' staging test is relative to when the flit reached
		// the buffer, so a lazy drain leaves the flit's allocation
		// eligibility, and with it every downstream decision, unchanged.
		vc.push(r.ring(i), eff)
		if sh == nil {
			if r.flitCount == 0 {
				r.activeSet.set(r.id)
			}
			*r.act++
			*r.rf++
		} else {
			if r.flitCount == 0 {
				sh.nowActive = append(sh.nowActive, int32(r.id))
			}
			sh.actDelta++
			sh.rfDelta++
		}
		r.flitCount++
		r.portFlits[dir]++
	}
}

func (r *Router) commitCredits(cs []creditEvent, dir Dir) {
	op := &r.out[dir]
	for _, ev := range cs {
		op.credits[ev.vc]++
		if int(op.credits[ev.vc]) > r.cfg.VCDepth {
			panic(fmt.Sprintf("noc: router %d dir %s vc %d credit overflow", r.id, dir, ev.vc))
		}
		if ev.freeVC {
			op.alloc[ev.vc] = false
		}
	}
}

// tick runs stage one (VA + SA over flits that have sat one cycle) and
// stage two (switch traversal) of the pipeline. sh, when non-nil, marks a
// parallel compute phase: every decision reads cycle-start state that no
// other router writes this cycle (routers interact only through link
// events committed in later cycles), and traversal defers its
// shared-state side effects into the shard. sc is the execution context's
// allocation scratch (shared across the routers one goroutine ticks).
// Observers must be detached in parallel mode — the allocators emit into a
// shared recorder.
func (r *Router) tick(now uint64, sh *tickShard, sc *allocScratch) {
	if r.flitCount == 0 {
		return
	}
	if r.faults != nil && r.faults.Frozen(now, int32(r.id)) {
		// Frozen pipeline: no allocation or traversal this cycle. Arrivals
		// still commit (the credit protocol bounds them to buffer space),
		// so a thawed router resumes from a consistent state.
		return
	}
	r.allocateVCs(now, sc)
	r.allocateSwitch(now, sh, sc)
}

// allocateVCs performs virtual-channel allocation for input VCs in the
// vcRouted state. Under OCOR the grant order is the Table 1 priority
// order; the baseline uses round-robin.
func (r *Router) allocateVCs(now uint64, sc *allocScratch) {
	if r.routedCount == 0 {
		return
	}
	if r.routedCount == 1 {
		// One routed VC in the whole router — the dominant case at low
		// utilization, where a lone packet hops across otherwise idle
		// routers. A single request needs no grouping and no arbitration:
		// both arbiters reduce to tryAssignVC plus the pointer landing back
		// on 0 on success ((best+1) mod 1), so the scratch machinery below
		// is bypassed wholesale.
		for inDir := Dir(0); inDir < NumDirs; inDir++ {
			m := r.routedMask[inDir]
			if m == 0 {
				continue
			}
			v := bits.TrailingZeros64(m)
			vc := &r.in[int(inDir)*r.vcs+v]
			if vc.n != 0 && now > vc.headEnq && vc.outDir != inDir {
				op := &r.out[vc.outDir]
				if r.tryAssignVC(now, op, vaReq{dir: inDir, vc: v}) {
					op.vaPtr = 0
				}
			}
			return
		}
	}
	// Single pass over the input VCs, grouping requests by output
	// direction. Requests land in each group in (inDir, vc) order —
	// identical to the order the per-output scan produced, so the
	// round-robin and priority arbiters see the exact same lists.
	for d := range sc.vaPerOut {
		if len(sc.vaPerOut[d]) != 0 {
			sc.vaPerOut[d] = sc.vaPerOut[d][:0]
		}
	}
	for inDir := Dir(0); inDir < NumDirs; inDir++ {
		m := r.routedMask[inDir]
		if m == 0 {
			continue
		}
		// Hoist the port's VC subslice so the per-VC address is one index
		// off a base pointer instead of a fresh port*VCs multiply.
		port := r.in[int(inDir)*r.vcs:]
		// Bit iteration visits exactly the vcRouted VCs in ascending index
		// order — the same order a full scan would.
		for ; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			vc := &port[v]
			// Conditions in the original order: staged one cycle, no
			// u-turns in XY routing.
			if vc.n != 0 && now > vc.headEnq && vc.outDir != inDir {
				sc.vaPerOut[vc.outDir] = append(sc.vaPerOut[vc.outDir], vaReq{dir: inDir, vc: v})
			}
		}
	}
	for outDir := Dir(0); outDir < NumDirs; outDir++ {
		reqs := sc.vaPerOut[outDir]
		if len(reqs) == 0 {
			continue
		}
		op := &r.out[outDir]
		if r.prio {
			r.grantVAPriority(now, op, reqs, sc)
		} else {
			r.grantVARoundRobin(now, op, reqs)
		}
	}
}

func (r *Router) grantVAPriority(now uint64, op *outPort, reqs []vaReq, sc *allocScratch) {
	n := len(reqs)
	// Priorities are stable for the duration of the grant loop (grants pop
	// no flits); fetch each VC's cached priority key once instead of
	// chasing vcBuf -> packet pointers on every selection round.
	// Key order is exactly Compare order (core.TestKeyOrderMatchesCompare),
	// so integer comparison picks the same winner the rule chain would.
	keys := sc.vaKeys[:0]
	for _, req := range reqs {
		keys = append(keys, r.vc(req.dir, req.vc).headKey)
	}
	sc.vaKeys = keys
	// Repeatedly pick the highest-priority unserved request (ties broken by
	// the rotating pointer) and hand it the first free VC in its vnet.
	served := 0
	for served < n {
		best := -1
		var bestKey uint32
		p := op.vaPtr % n
		for i := 0; i < n; i++ {
			idx := p + i
			if idx >= n {
				idx -= n
			}
			if reqs[idx].dir == -1 {
				continue
			}
			if best == -1 || keys[idx] > bestKey {
				best, bestKey = idx, keys[idx]
			}
		}
		if best == -1 {
			return
		}
		req := reqs[best]
		reqs[best].dir = -1
		served++
		if !r.tryAssignVC(now, op, req) {
			// No free VC in this packet's vnet; lower-priority requests for
			// other vnets may still succeed, so keep scanning.
			continue
		}
		op.vaPtr = best + 1
		if op.vaPtr == len(reqs) {
			op.vaPtr = 0
		}
	}
}

func (r *Router) grantVARoundRobin(now uint64, op *outPort, reqs []vaReq) {
	n := len(reqs)
	p := op.vaPtr % n
	for i := 0; i < n; i++ {
		idx := p + i
		if idx >= n {
			idx -= n
		}
		if r.tryAssignVC(now, op, reqs[idx]) {
			op.vaPtr = idx + 1
			if op.vaPtr == n {
				op.vaPtr = 0
			}
			p = op.vaPtr
		}
	}
}

// tryAssignVC gives the requesting input VC the first free output VC within
// its packet's virtual network. It returns false when none is free.
func (r *Router) tryAssignVC(now uint64, op *outPort, req vaReq) bool {
	vc := r.vc(req.dir, req.vc)
	lo, hi := int(r.vcLo[vc.headVNet]), int(r.vcHi[vc.headVNet])
	for v := lo; v < hi; v++ {
		if !op.alloc[v] {
			op.alloc[v] = true
			if r.obs != nil {
				r.obs.VAGranted(now, r.id, vc.pkt.ID, int(req.dir), req.vc, v)
			}
			if vc.state == vcRouted {
				// The round-robin arbiter can revisit an index after its
				// pointer advances and re-grant a VC that is already active;
				// only genuine vcRouted->vcActive transitions are counted.
				r.routedCount--
				r.activeCount++
				r.routedMask[req.dir] &^= 1 << uint(req.vc)
				r.activeMask[req.dir] |= 1 << uint(req.vc)
			}
			vc.state = vcActive
			vc.outVC = uint8(v)
			r.Stats.VAGrants++
			return true
		}
	}
	return false
}

// allocateSwitch performs the two-stage switch allocation: a Local Priority
// Arbiter per input port selects one candidate VC, then a per-output-port
// global arbiter picks the winner. Winners traverse the switch immediately
// (stage two).
//
// The local arbiter visits a port's ready VCs in fixed ascending index
// order: the baseline takes the first, OCOR the highest priority key with
// ties to the lowest index. It keeps no rotating pointer, so among equal
// candidates the lower VC index — a request-vnet VC before a
// response-vnet one — always wins (a known deviation from a round-robin
// local arbiter; see EXPERIMENTS.md).
func (r *Router) allocateSwitch(now uint64, sh *tickShard, sc *allocScratch) {
	if r.activeCount == 0 {
		return
	}
	// Stage 1: LPA per input port.
	cands := sc.saCands[:0]
	for inDir := Dir(0); inDir < NumDirs; inDir++ {
		mask := r.activeMask[inDir]
		if mask == 0 || r.portFlits[inDir] == 0 {
			continue // no active VC holding a flit on this port
		}
		port := r.in[int(inDir)*r.vcs:]
		best := -1
		var bestKey uint32
		for m := mask; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			vc := &port[v]
			if vc.n != 0 && now > vc.headEnq && // stage-one latency
				r.out[vc.outDir].credits[vc.outVC] > 0 { // downstream space
				if best == -1 {
					best, bestKey = v, vc.headKey
					if !r.prio {
						break // baseline: the lowest-index ready VC wins
					}
				} else if vc.headKey > bestKey {
					best, bestKey = v, vc.headKey
				}
			}
		}
		if best >= 0 {
			cands = append(cands, saCand{dir: inDir, vc: best})
		}
	}
	sc.saCands = cands[:0]
	if len(cands) == 0 {
		return
	}
	if len(cands) == 1 {
		// Single LPA winner: it is the sole (and winning) bidder at its
		// output, and the rotating pointer lands back on 0 as (0+1)%1 does.
		c := cands[0]
		vc := r.vc(c.dir, c.vc)
		r.out[vc.outDir].saPtr = 0
		r.traverse(now, c.dir, c.vc, sh)
		return
	}
	// bidCount tallies bidders per output, so each output's scan stops as
	// soon as it has seen all of its own bidders (and outputs with none are
	// skipped entirely).
	var bidCount [NumDirs]int
	for _, c := range cands {
		bidCount[r.vc(c.dir, c.vc).outDir]++
	}

	// Stage 2: per-output global arbitration among the LPA winners.
	for outDir := Dir(0); outDir < NumDirs; outDir++ {
		if bidCount[outDir] == 0 {
			continue
		}
		op := &r.out[outDir]
		winner := -1
		n := len(cands)
		if bidCount[outDir] == 1 {
			// A lone bidder wins wherever the rotating pointer stands, so a
			// straight scan finds the same winner as the rotated one. (A
			// candidate marked -1 was granted at its own output, which was
			// not this one, so the surviving bidder is still live.)
			for idx := range cands {
				if c := cands[idx]; c.dir != -1 && r.vc(c.dir, c.vc).outDir == outDir {
					winner = idx
					break
				}
			}
		} else {
			var winKey uint32
			bidders := 0
			p := op.saPtr % n
			for i := 0; i < n; i++ {
				idx := p + i
				if idx >= n {
					idx -= n
				}
				c := cands[idx]
				if c.dir == -1 {
					// Already granted at an earlier output this cycle; its own
					// output was that one, so it is not a bidder here.
					continue
				}
				vc := r.vc(c.dir, c.vc)
				if vc.outDir != outDir {
					continue
				}
				bidders++
				if winner == -1 {
					winner, winKey = idx, vc.headKey
					if !r.prio {
						break
					}
				} else if vc.headKey > winKey {
					winner, winKey = idx, vc.headKey
				}
				if bidders == bidCount[outDir] {
					break
				}
			}
			if bidders > 1 {
				r.Stats.SAConflicts++
			}
		}
		if winner == -1 {
			continue
		}
		if r.obs != nil && bidCount[outDir] > 1 {
			r.recordArbitration(now, cands, winner, outDir)
		}
		op.saPtr = winner + 1
		if op.saPtr == n {
			op.saPtr = 0
		}
		c := cands[winner]
		cands[winner].dir = -1 // one crossbar grant per input port
		r.traverse(now, c.dir, c.vc, sh)
	}
}

// recordArbitration re-scans the candidates bidding for outDir and emits
// one SAWin plus one SALoss per losing bidder, classified by the Table 1
// rule that separated the loser from the winner (RuleTie under round-robin
// arbitration, where priorities are never consulted). The scan is
// read-only and runs only with a recorder attached and >1 bidder.
func (r *Router) recordArbitration(now uint64, cands []saCand, winner int, outDir Dir) {
	wpkt := r.vc(cands[winner].dir, cands[winner].vc).pkt
	var bestLose core.Priority
	bidders, losers := 0, 0
	for i, c := range cands {
		if c.dir == -1 {
			continue
		}
		vc := r.vc(c.dir, c.vc)
		if vc.outDir != outDir {
			continue
		}
		bidders++
		if i == winner {
			continue
		}
		lp := vc.pkt.Prio
		rule := obs.RuleTie
		if r.cfg.Priority {
			rule = obs.DecisiveRule(wpkt.Prio, lp)
		}
		r.obs.SALoss(now, r.id, vc.pkt.ID, wpkt.ID, int(outDir), rule)
		if losers == 0 || core.Compare(lp, bestLose) > 0 {
			bestLose = lp
		}
		losers++
	}
	if losers == 0 {
		return
	}
	winRule := obs.RuleTie
	if r.cfg.Priority {
		winRule = obs.DecisiveRule(wpkt.Prio, bestLose)
	}
	r.obs.SAWin(now, r.id, wpkt.ID, int(outDir), winRule, bidders)
}

// traverse is stage two: move the head flit of the granted input VC onto
// the output link and return a credit upstream. With sh non-nil the moves
// still happen immediately (the link queues are single-sender, so the
// appends are private to this worker), but every shared-state side effect
// — activity counters, the active-router bitmap, pending-list and NI
// bitmap registration — is deferred into the shard for the ordered commit
// phase.
func (r *Router) traverse(now uint64, inDir Dir, vcIdx int, sh *tickShard) {
	i := int(inDir)*r.vcs + vcIdx
	vc := &r.in[i]
	f, arrived := vc.head(), vc.headEnq
	vc.pop(r.ring(i))
	r.flitCount--
	r.portFlits[inDir]--
	op := &r.out[vc.outDir]
	op.credits[vc.outVC]--
	at := now + uint64(r.cfg.LinkLatency)
	if sh == nil {
		if r.flitCount == 0 {
			r.activeSet.clear(r.id)
		}
		*r.act--
		*r.rf--
		r.outLink[vc.outDir].sendFlit(f, int(vc.outVC), at)
		r.inLink[inDir].sendCredit(vcIdx, f.isTail(), at)
	} else {
		if r.flitCount == 0 {
			sh.cleared = append(sh.cleared, int32(r.id))
		}
		sh.actDelta--
		sh.rfDelta--
		r.outLink[vc.outDir].sendFlitPar(f, int(vc.outVC), at, sh)
		r.inLink[inDir].sendCreditPar(vcIdx, f.isTail(), at, sh)
	}
	r.Stats.SAGrants++
	r.Stats.FlitsTraversed++
	if f.isHead() {
		f.pkt.Hops++
		if r.obs != nil {
			r.obs.Hop(now, r.id, f.pkt.ID, now-arrived, int(inDir), int(vc.outDir), int(vc.outVC))
		}
	}
	if f.isTail() {
		if vc.n != 0 {
			panic(fmt.Sprintf("noc: router %d tail left dir %s vc %d with %d flits behind", r.id, inDir, vcIdx, vc.n))
		}
		vc.state = vcIdle
		r.activeCount--
		r.activeMask[inDir] &^= 1 << uint(vcIdx)
	}
}

// BufferedFlits returns the number of flits currently buffered.
func (r *Router) BufferedFlits() int { return r.flitCount }
