package noc

// Sharded fused-tick executor.
//
// Within one cycle, routers interact with each other only through link
// events that are committed in *later* cycles (every sender stamps
// now+LinkLatency, latency >= 1), so every per-cycle phase of Network.Tick
// that touches routers or injection is data-parallel across nodes. The
// executor partitions the node range into contiguous spatial shards
// (router i and NI i always share a shard) and runs the heavy phases on a
// persistent par.Pool.
//
// The fused path (no observer attached) runs ONE fork-join barrier per
// cycle. Each shard worker, over its own node range, performs: link drain
// -> router allocation/traversal -> NI injection. The dependence analysis
// that allows the fusion is per link: a link may be drained inside a shard
// only when BOTH of its endpoints map to that shard, because draining a
// link's queue (takeDue*, a swap) races with the sends its remote endpoint
// issues during the same barrier (the flit sender appends during router
// traversal / NI injection; the credit sender appends during traversal /
// ejection-credit returns). Links whose endpoints straddle a shard
// boundary are instead pre-drained by the dispatching goroutine before the
// barrier — sequential semantics, direct shared accounting — so the
// workers never touch a queue another worker can append to. NI local
// links (src == dst) are local by construction, and on a W x H mesh with
// contiguous shards only the O(W) links crossing each boundary row pay
// the central pre-drain.
//
// Reordering the NI-eject and loopback phases ahead of the link drain
// (the sequential engine drains links first) is byte-identical: all link
// events are future-dated at send, so the drain only commits events from
// earlier cycles and can never make new work due in the current one. The
// two phases write disjoint state (router VC/credit state vs NI state);
// their only shared touches — the activity counter, niEvents, and the
// niActive bitmap — are commuting counter increments and idempotent bit
// sets. The one coupling, a drop-marked arrival crediting its slot back
// upstream onto an NI-consumed link, produces a future-dated event that
// neither order can consume this cycle.
//
// A worker that skips the router phase is also byte-identical even when
// its own drain buffers new flits: an arrival stamped with the current
// cycle fails every allocator's staging test (now > headEnq), and
// vcRouted implies a buffered head, so a router whose flits all arrived
// this cycle provably does nothing when ticked. The dispatcher therefore
// evaluates the router-phase gate after the central pre-drain — with one
// addition for fast-forward's one-cycle-lazy drains: a pending head due
// strictly before now commits with its original arrival stamp and IS
// allocation-eligible this very cycle, so the classification pass flags
// such links and forces the router phase on.
//
// Workers compute against cycle-start state and apply all *node-local*
// effects immediately. Every *shared* side effect is recorded in the
// worker's tickShard and replayed by the dispatcher in ascending shard
// order once the barrier completes: the activity/routerFlits/queuedPkts
// counters, the routerActive/niActive/niInject bitmaps (their 64-node
// words span shard boundaries), and the pendFlits/pendCredits
// registration lists. Pending-list order is immaterial to state evolution
// (each link appears at most once and commits to a distinct (router,
// port) pair), and counter deltas and bitmap bits commute, so the
// resulting state is byte-identical to the sequential engine's — the
// determinism matrix in the root package holds the executor to exactly
// that.
//
// Because the worker's own drain can activate routers in its range while
// the shared routerActive words are frozen for the barrier, each worker
// ticks from a private snapshot of its words with its own 0->1
// transitions OR-ed in — ascending id order, exactly the sequential
// visit order.
//
// The fused cycle is the executor's only parallel path. With an observer
// attached the network ticks sequentially (routers and NIs emit into one
// shared recorder), and a cycle with less work than the gate in
// Network.Tick runs sequentially too: on two cores a fused cycle only
// beats the sequential tick once it carries thousands of buffered flits
// (EXPERIMENTS.md, "Intra-run scaling").

import (
	"math/bits"

	"repro/internal/par"
)

// tickShard is one worker's slice of the node range plus its deferred
// shared-state effects for the current cycle. All slices are retained and
// reused across cycles ([:0] reset), so steady-state parallel ticking
// allocates nothing.
type tickShard struct {
	id     int32
	lo, hi int // node id range [lo, hi)

	// Deferred counter deltas: network activity, router-buffered flits,
	// NI-queued packets.
	actDelta int
	rfDelta  int
	qpDelta  int

	// localF/localC are the pending links this shard drains this cycle:
	// the dispatcher buckets here every link with both endpoints in the
	// shard.
	localF []*link
	localC []*link

	// Links that still hold events after the drain and must return to the
	// pending lists, and per-shard drain scratch (same swap contract as
	// the network-wide scratch buffers).
	keepF    []*link
	keepC    []*link
	scratchF []flitEvent
	scratchC []creditEvent

	// Credits owed upstream for drop-marked arrivals. The upstream side of
	// the same link may be appended to concurrently by another shard
	// during the barrier, so the sends are replayed by the dispatcher
	// after it.
	dropCredits []dropCredit

	// Routers whose flitCount crossed 0->1 (drain) / 1->0 (traversal):
	// their routerActive bit must be set / cleared at commit.
	nowActive []int32
	cleared   []int32

	// Links sent on this cycle (one entry per sendFlitPar/sendCreditPar):
	// their pending-list or NI-bitmap registration happens at commit.
	sentF []*link
	sentC []*link

	// NIs whose QueuedPkts crossed 1->0 during injection: their niInject
	// bit must be cleared at commit.
	idleNI []int32

	// actWords is the worker's private view of the routerActive words
	// covering [lo, hi): a snapshot of the shared words with this shard's
	// own drain activations OR-ed in.
	actWords []uint64

	// alloc is this shard's private VA/SA scratch, shared by the routers
	// the shard ticks.
	alloc allocScratch

	// Pad shards apart so neighbouring workers' delta writes do not share
	// a cache line.
	_ [64]byte
}

// dropCredit is a deferred drain-phase credit return for a drop-marked
// flit arrival (see Router.commit).
type dropCredit struct {
	l      *link
	vc     int
	freeVC bool
	at     uint64
}

// tickExec drives the shards over a par.Pool. The dispatch closure is
// created once at SetTickPool and parameterized through the now/doR/doNI
// fields, so a parallel cycle allocates no closures.
type tickExec struct {
	pool   *par.Pool
	net    *Network
	shards []tickShard
	// shardOf maps a node id to its owning shard.
	shardOf []int32

	// spareF/spareC are the double-buffer halves the fused dispatcher
	// swaps with the live pending lists: the snapshot being classified
	// must stay stable while pre-drain sends re-register links on the
	// live (empty) lists.
	spareF []*link
	spareC []*link

	// Per-dispatch parameters, written by the dispatching goroutine before
	// Pool.Run and read-only during it.
	now       uint64
	doR, doNI bool

	// Every rebalanceEvery fused cycles (0 = disabled) the shard
	// boundaries are recut from the current active bitmaps. SetTickPool
	// sets defaultRebalanceEvery; tests override it after attaching.
	rebalanceEvery int

	fusedFn func(worker int)
}

// defaultParWork is the per-cycle work count (router-buffered flits plus
// pending links) from which a fused cycle runs: the crossover of the forced
// BenchmarkNetworkTick at workers 1 and 2 on a 2-CPU host (EXPERIMENTS.md,
// "Intra-run scaling"). The saturated 16x16 mesh, about 4.5k work per
// cycle, still loses with two workers; the 24x24 mesh, about 11.4k, wins.
const defaultParWork = 8192

// defaultRebalanceEvery is the executor's rebalancing period in fused
// cycles. Shards stay contiguous and commit in ascending order, so the
// period only affects load balance, never results.
const defaultRebalanceEvery = 512

// SetTickPool attaches (or with nil detaches) a worker pool for
// intra-cycle parallelism. A pool of one worker is equivalent to nil: the
// network stays on the plain sequential path. The same network can switch
// pools between runs; shards are rebuilt per attachment.
//
// Network implements sim.TickPoolUser through this method, so an engine
// handed a pool via Engine.SetTickPool forwards it here automatically.
func (n *Network) SetTickPool(p *par.Pool) {
	if p == nil || p.Workers() <= 1 {
		n.exec = nil
		return
	}
	nodes := n.Cfg.Nodes()
	shards := p.Workers()
	if shards > nodes {
		shards = nodes
	}
	e := &tickExec{pool: p, net: n}
	e.shards = make([]tickShard, shards)
	e.shardOf = make([]int32, nodes)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.id = int32(i)
		sh.lo = i * nodes / shards
		sh.hi = (i + 1) * nodes / shards
		for node := sh.lo; node < sh.hi; node++ {
			e.shardOf[node] = int32(i)
		}
	}
	e.fusedFn = e.fusedShard
	e.rebalanceEvery = defaultRebalanceEvery
	// Both paths are state-identical, so the gate only decides speed.
	switch {
	case n.Cfg.ParThreshold < 0:
		n.parWork = 0
	case n.Cfg.ParThreshold > 0:
		n.parWork = n.Cfg.ParThreshold
	default:
		n.parWork = defaultParWork
	}
	n.exec = e
}

// rebalance recuts the contiguous shard ranges so each holds roughly an
// equal share of the current active-node weight (a node scores one point
// per activity bitmap naming it: buffered flits, NI link events, queued
// packets). A uniform node split leaves workers idle when traffic
// clusters — a hotspot corner of a 64x64 mesh lands entirely in one
// shard — so the executor periodically recuts along the same node order.
//
// Every determinism argument in the package comment depends only on the
// properties rebalance preserves: the shards remain a contiguous,
// exhaustive, non-empty partition of the node range; commits still fold
// in ascending shard order; and shardOf is rewritten to match before the
// next classification. The cut itself reads only simulation state, so it
// is identical across runs and worker counts never affect results.
func (e *tickExec) rebalance() {
	n := e.net
	nodes := len(e.shardOf)
	S := len(e.shards)
	total := 0
	for w := range n.routerActive.words {
		total += bits.OnesCount64(n.routerActive.words[w]) +
			bits.OnesCount64(n.niActive.words[w]) +
			bits.OnesCount64(n.niInject.words[w])
	}
	if total == 0 {
		// A quiescent network has no weight to balance; keep the cut.
		return
	}
	sh, lo, acc := 0, 0, 0
	for i := 0; i < nodes && sh < S-1; i++ {
		w, b := i>>6, uint64(1)<<uint(i&63)
		if n.routerActive.words[w]&b != 0 {
			acc++
		}
		if n.niActive.words[w]&b != 0 {
			acc++
		}
		if n.niInject.words[w]&b != 0 {
			acc++
		}
		// Close shard sh after node i once it holds its proportional share,
		// as long as enough nodes remain to keep every later shard
		// non-empty.
		if acc*S >= total*(sh+1) && nodes-(i+1) >= S-(sh+1) {
			e.shards[sh].lo, e.shards[sh].hi = lo, i+1
			sh++
			lo = i + 1
		}
	}
	// Close the still-open shards: trailing ones take one node each off the
	// tail (weight can concentrate so late that the greedy pass never cut),
	// and shard sh absorbs everything in between.
	hi := nodes
	for j := S - 1; j > sh; j-- {
		e.shards[j].lo, e.shards[j].hi = hi-1, hi
		hi--
	}
	e.shards[sh].lo, e.shards[sh].hi = lo, hi
	for i := range e.shards {
		s := &e.shards[i]
		for node := s.lo; node < s.hi; node++ {
			e.shardOf[node] = int32(i)
		}
	}
}

// shardLocal reports whether l's two endpoints map to the same shard —
// the fused-phase dependence rule — and, when they do, which shard owns
// it. The satellite classification test cross-checks this against a
// brute-force membership scan.
func (e *tickExec) shardLocal(l *link) (int32, bool) {
	s := e.shardOf[l.srcNode]
	return s, s == e.shardOf[l.dstNode]
}

// tickFused runs Tick phases 1+4+5 under one barrier: the dispatcher
// classifies the pending links — shard-local ones are bucketed for their
// owning worker, boundary-crossing ones are pre-drained centrally — then
// every shard drains, allocates/traverses and injects over its own node
// range, and the deferred shared effects fold back in ascending shard
// order. Callers must run the NI-eject and loopback phases first (see the
// package comment for why that reordering is byte-identical).
func (n *Network) tickFused(now uint64) {
	e := n.exec
	e.now = now
	n.fusedCycles++
	// Deterministic epoch repartition: recut the shard boundaries from the
	// activity bitmaps every rebalanceEvery fused cycles. The fused-cycle
	// count depends only on the simulated cycle sequence, and the cut is a
	// pure function of network state, so every run of a configuration sees
	// the same partitions at the same cycles regardless of worker
	// scheduling.
	if e.rebalanceEvery > 0 && n.fusedCycles%uint64(e.rebalanceEvery) == 0 {
		e.rebalance()
	}
	// Swap the pending lists aside: the snapshot below must stay stable
	// while cross-shard pre-drain sends (drop-credit returns) re-register
	// links on the live lists through the usual queued guards.
	pf, pc := n.pendFlits, n.pendCredits
	n.pendFlits, e.spareF = e.spareF[:0], pf
	n.pendCredits, e.spareC = e.spareC[:0], pc
	// Credits first: commitCredits never sends, so the live credit list
	// only grows once the flit pass below starts issuing drop credits —
	// each lands exactly once, on the live list or via its queued guard.
	for _, l := range pc {
		if s, local := e.shardLocal(l); local {
			sh := &e.shards[s]
			sh.localC = append(sh.localC, l)
			continue
		}
		if l.credits[0].at <= now {
			n.scratchC = l.dueCredits(now, n.scratchC)
			l.creditRecv.commitCredits(n.scratchC, l.creditDir)
		}
		if len(l.credits) > 0 {
			n.pendCredits = append(n.pendCredits, l)
		} else {
			l.creditQueued = false
		}
	}
	staleF := false
	for _, l := range pf {
		if s, local := e.shardLocal(l); local {
			sh := &e.shards[s]
			sh.localF = append(sh.localF, l)
			if !staleF && l.flits[0].at < now {
				// A lazily drained arrival (committed one cycle after its
				// due cycle, see Network.NextEventCycle) is staging-eligible
				// immediately, so its router must tick this cycle even if no
				// router held flits when the gate below is evaluated.
				staleF = true
			}
			continue
		}
		if l.flits[0].at <= now {
			n.scratchF = l.dueFlits(now, n.scratchF)
			l.flitRecv.commit(now, n.scratchF, l.flitDir, nil)
		}
		if len(l.flits) > 0 {
			n.pendFlits = append(n.pendFlits, l)
		} else {
			l.flitQueued = false
		}
	}
	// Phase gates, evaluated after the central pre-drain. Arrivals from
	// the in-shard drains can still activate routers, but a router whose
	// flits all arrived this cycle ticks to a provable no-op, so the gate
	// needs no second look.
	e.doR = n.routerFlits > 0 || staleF
	e.doNI = n.queuedPkts > 0
	e.pool.Run(e.fusedFn)
	// Ordered commit: fold every shard's deferred shared effects in
	// ascending shard order. Within a shard, drain activations (0->1)
	// apply before traversal clearings (1->0), matching the sequential
	// within-cycle sequence for a router that did both.
	for i := range e.shards {
		sh := &e.shards[i]
		n.activity += sh.actDelta
		n.routerFlits += sh.rfDelta
		n.queuedPkts += sh.qpDelta
		sh.actDelta, sh.rfDelta, sh.qpDelta = 0, 0, 0
		for _, id := range sh.nowActive {
			n.routerActive.set(int(id))
		}
		sh.nowActive = sh.nowActive[:0]
		for _, id := range sh.cleared {
			n.routerActive.clear(int(id))
		}
		sh.cleared = sh.cleared[:0]
		for _, id := range sh.idleNI {
			n.niInject.clear(int(id))
		}
		sh.idleNI = sh.idleNI[:0]
		n.pendFlits = append(n.pendFlits, sh.keepF...)
		n.pendCredits = append(n.pendCredits, sh.keepC...)
		sh.keepF = sh.keepF[:0]
		sh.keepC = sh.keepC[:0]
		// Replay the deferred drop-credit returns. Credit commits are
		// commutative (counter increments plus idempotent flag clears), so
		// shard order yields the same state as in-drain sends; the
		// pending-list registration inside sendCredit is guarded by
		// creditQueued, so links already on the live list are not
		// re-registered.
		for _, dc := range sh.dropCredits {
			dc.l.sendCredit(dc.vc, dc.freeVC, dc.at)
		}
		sh.dropCredits = sh.dropCredits[:0]
		for _, l := range sh.sentF {
			if l.flitRecv != nil {
				if !l.flitQueued {
					l.flitQueued = true
					n.pendFlits = append(n.pendFlits, l)
				}
			} else {
				n.niEvents++
				n.niActive.set(l.niIdx)
			}
		}
		sh.sentF = sh.sentF[:0]
		for _, l := range sh.sentC {
			if l.creditRecv != nil {
				if !l.creditQueued {
					l.creditQueued = true
					n.pendCredits = append(n.pendCredits, l)
				}
			} else {
				n.niEvents++
				n.niActive.set(l.niIdx)
			}
		}
		sh.sentC = sh.sentC[:0]
	}
}

// fusedShard is the one-barrier worker: drain this shard's local links,
// tick its active routers from the private bitmap view, then inject on
// its NIs — the same phase order as the sequential engine from this
// shard's point of view.
func (e *tickExec) fusedShard(worker int) {
	if worker >= len(e.shards) {
		return
	}
	sh := &e.shards[worker]
	n := e.net
	now := e.now
	for _, l := range sh.localC {
		if l.credits[0].at <= now {
			var taken int
			sh.scratchC, taken = l.takeDueCredits(now, sh.scratchC)
			sh.actDelta -= taken
			l.creditRecv.commitCredits(sh.scratchC, l.creditDir)
		}
		if len(l.credits) > 0 {
			sh.keepC = append(sh.keepC, l)
		} else {
			l.creditQueued = false
		}
	}
	sh.localC = sh.localC[:0]
	for _, l := range sh.localF {
		if l.flits[0].at <= now {
			var taken int
			sh.scratchF, taken = l.takeDueFlits(now, sh.scratchF)
			sh.actDelta -= taken
			l.flitRecv.commit(now, sh.scratchF, l.flitDir, sh)
		}
		if len(l.flits) > 0 {
			sh.keepF = append(sh.keepF, l)
		} else {
			l.flitQueued = false
		}
	}
	sh.localF = sh.localF[:0]
	if e.doR {
		// Tick from a private snapshot of the routerActive words covering
		// [lo, hi), with this shard's own drain activations OR-ed in: the
		// shared words are frozen during the barrier, and ascending bit
		// iteration reproduces the sequential visit order.
		w0 := sh.lo >> 6
		w1 := (sh.hi + 63) >> 6
		words := append(sh.actWords[:0], n.routerActive.words[w0:w1]...)
		sh.actWords = words
		for _, id := range sh.nowActive {
			words[int(id)>>6-w0] |= 1 << uint(id&63)
		}
		for w := w0; w < w1; w++ {
			word := maskToRange(words[w-w0], w<<6, sh.lo, sh.hi)
			for ; word != 0; word &= word - 1 {
				n.Routers[w<<6|bits.TrailingZeros64(word)].tick(now, sh, &sh.alloc)
			}
		}
	}
	if e.doNI {
		// The shared niInject words are frozen for the barrier (idle
		// transitions are deferred via sh.idleNI), so the summary level can
		// skip idle 64-node blocks of the shard range wholesale.
		for sw := sh.lo >> 12; sw<<12 < sh.hi; sw++ {
			sword := maskToRange(n.niInject.sum[sw], sw<<6, sh.lo>>6, (sh.hi+63)>>6)
			for ; sword != 0; sword &= sword - 1 {
				w := sw<<6 | bits.TrailingZeros64(sword)
				word := maskToRange(n.niInject.words[w], w<<6, sh.lo, sh.hi)
				for ; word != 0; word &= word - 1 {
					n.NIs[w<<6|bits.TrailingZeros64(word)].inject(now, sh)
				}
			}
		}
	}
}

// maskToRange restricts a bitmap word whose bit 0 represents node `base`
// to the ids in [lo, hi).
func maskToRange(word uint64, base, lo, hi int) uint64 {
	if lo > base {
		word &^= 1<<uint(lo-base) - 1
	}
	if hi < base+64 {
		word &= 1<<uint(hi-base) - 1
	}
	return word
}
