package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// sigParams describes one runSignature configuration.
type sigParams struct {
	w, h         int
	prio         bool
	workers      int
	parThreshold int
	flows        int // injection flows opened per node
	generations  int // ping-pong bounces per delivered packet
	stride       int // open flows on every stride-th node only (0 = 1 = all)
	linkLat      int // Config.LinkLatency override (0 keeps the default)
	noFF         bool
	rebalance    int // executor rebalance period (0 keeps the default, negative disables)
	rec          *obs.Recorder
}

// runSignature drives a multi-generation ping-pong workload on a WxH mesh
// and returns a textual signature of everything observable: the exact
// delivery sequence (order, cycle, hops, latency per packet), the final
// network statistics, and per-router/per-NI counters. Two runs are
// behaviourally identical iff their signatures are byte-equal.
//
// workers > 1 attaches a pool of that size through the engine (exercising
// the sim.TickPoolUser forwarding); parThreshold is Config.ParThreshold;
// noFF registers the busyTicked oracle instead of the bare network;
// rec optionally attaches an observer (which must keep every cycle
// sequential without changing results).
func runSignature(t *testing.T, p sigParams) string {
	t.Helper()
	cfg := testConfig(p.w, p.h, p.prio)
	cfg.ParThreshold = p.parThreshold
	if p.linkLat > 0 {
		cfg.LinkLatency = p.linkLat
	}
	n := MustNetwork(cfg)
	if p.rec != nil {
		n.SetObserver(p.rec)
	}

	var sb strings.Builder
	// Each delivery bounces a response back to the sender for a fixed
	// number of generations, so the network stays loaded across many
	// cycles and the parallel phases engage repeatedly at varying load.
	generations := p.generations
	for i := 0; i < cfg.Nodes(); i++ {
		node := i
		n.SetSink(node, func(now uint64, pkt *Packet) {
			fmt.Fprintf(&sb, "d n=%d id=%d src=%d hops=%d lat=%d at=%d\n",
				node, pkt.ID, pkt.Src, pkt.Hops, pkt.NetLatency(), now)
			gen := pkt.Payload.(int)
			if gen < generations {
				resp := n.NewPacket(node, pkt.Src, ClassData, VNetResponse, gen+1)
				n.Send(now, resp)
			}
			n.FreePacket(pkt)
		})
	}

	e := sim.NewEngine()
	e.Register(engineView(n, p.noFF))
	if p.workers > 1 {
		pool := par.NewPool(p.workers)
		defer pool.Close()
		e.SetTickPool(pool)
		defer e.SetTickPool(nil)
		if p.rebalance != 0 {
			n.exec.rebalanceEvery = max(p.rebalance, 0)
		}
	}

	// Seed-driven all-to-some traffic: every stride-th node opens several
	// flows (stride 1 — the default — loads every node; a large stride
	// leaves most of a giant mesh idle so idle-window fast-forward has
	// real windows to skip).
	stride := p.stride
	if stride <= 0 {
		stride = 1
	}
	rng := sim.NewRNG(23)
	for s := 0; s < cfg.Nodes(); s += stride {
		for k := 0; k < p.flows; k++ {
			d := rng.Intn(cfg.Nodes())
			if d == s {
				continue
			}
			vn := rng.Intn(NumVNets)
			class := ClassData
			if vn == VNetRequest {
				class = ClassCtrl
			}
			pkt := n.NewPacket(s, d, class, vn, 0)
			if p.prio && k%4 == 0 {
				pkt.Class = ClassLock
				pkt.Prio = core.Priority{Check: true, Class: uint8(k % 8), Prog: uint16(s % 4)}
			}
			n.Send(0, pkt)
		}
	}

	e.MaxCycles = 500000
	end := e.RunUntil(func() bool { return !n.Busy() })
	if n.Busy() {
		t.Fatalf("network not drained (prio=%v workers=%d thr=%d)", p.prio, p.workers, p.parThreshold)
	}
	if n.Busy() != n.scanBusy() {
		t.Fatalf("Busy()/scanBusy() disagree at end (workers=%d)", p.workers)
	}
	// A forced or explicitly gated run that never went fused would compare
	// the sequential tick with itself; an observed run must never go fused.
	if p.workers > 1 && p.parThreshold != 0 && p.rec == nil && n.fusedCycles == 0 {
		t.Fatalf("workers=%d thr=%d ran no fused cycle", p.workers, p.parThreshold)
	}
	if p.rec != nil && n.fusedCycles != 0 {
		t.Fatalf("observed run went fused for %d cycles", n.fusedCycles)
	}

	fmt.Fprintf(&sb, "end=%d injected=%v delivered=%v flits=%d local=%d\n",
		end, n.Stats.InjectedPkts, n.Stats.DeliveredPkts, n.Stats.InjectedFlits, n.Stats.LocalDeliveries)
	for c := 0; c < int(NumClasses); c++ {
		fmt.Fprintf(&sb, "lat c=%d net=%v total=%v\n", c, n.Stats.NetLatency[c], n.Stats.TotalLatency[c])
	}
	for i, r := range n.Routers {
		fmt.Fprintf(&sb, "r%d %+v\n", i, r.Stats)
	}
	for i, ni := range n.NIs {
		fmt.Fprintf(&sb, "ni%d inj=%v del=%v flits=%d\n", i, ni.Injected, ni.Delivered, ni.FlitsSent)
	}
	allocs, reuses, frees, live := n.PoolStats()
	fmt.Fprintf(&sb, "pool a=%d r=%d f=%d live=%d\n", allocs, reuses, frees, live)
	return sb.String()
}

// TestParallelTickMatchesSequential is the executor's core guarantee: for
// every worker count, threshold setting and arbitration policy, the fused
// single-barrier tick executor produces a byte-identical simulation to
// the plain sequential path. ParThreshold -1 forces the fused tick on for
// every cycle with work (the 4x4 test mesh never reaches the default
// gate); 4 and 96 are explicit gates, so runs mix sequential and fused
// cycles.
func TestParallelTickMatchesSequential(t *testing.T) {
	for _, prio := range []bool{false, true} {
		ref := runSignature(t, sigParams{w: 4, h: 4, prio: prio, workers: 1, flows: 12, generations: 3})
		for _, workers := range []int{2, 3, 4, 8} {
			for _, thr := range []int{-1, 4, 96} {
				got := runSignature(t, sigParams{w: 4, h: 4, prio: prio, workers: workers,
					parThreshold: thr, flows: 12, generations: 3})
				if got != ref {
					t.Fatalf("prio=%v workers=%d thr=%d diverged from sequential:\nref %d bytes, got %d bytes",
						prio, workers, thr, len(ref), len(got))
				}
			}
		}
	}
}

// TestParallelTickMatchesSequentialLarge repeats the identity check on a
// 32x32 mesh — large enough that shards span multiple routerActive words,
// the opening burst crosses the default gate without forcing (the run
// mixes fused and sequential cycles), and cross-shard boundary links are
// plentiful. The workload is lighter per node to keep the matrix fast.
func TestParallelTickMatchesSequentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 identity matrix skipped in -short")
	}
	ref := runSignature(t, sigParams{w: 32, h: 32, prio: true, workers: 1, flows: 3, generations: 2})
	for _, workers := range []int{2, 4} {
		for _, thr := range []int{-1, 0} {
			got := runSignature(t, sigParams{w: 32, h: 32, prio: true, workers: workers,
				parThreshold: thr, flows: 3, generations: 2})
			if got != ref {
				t.Fatalf("32x32 workers=%d thr=%d diverged from sequential:\nref %d bytes, got %d bytes",
					workers, thr, len(ref), len(got))
			}
		}
	}
}

// TestFastForwardMatchesSequential is the idle-window fast-forward
// identity: the network's NextWake answers NextEventCycle, so the engine
// jumps straight to the next cycle where the network has work, and the
// simulation must still be byte-identical to the conservative
// tick-every-busy-cycle discipline of the busyTicked oracle, for every
// worker count and both arbitration policies. LinkLatency 4 opens
// multi-cycle flight gaps so the skip path is actually taken.
func TestFastForwardMatchesSequential(t *testing.T) {
	for _, prio := range []bool{false, true} {
		ref := runSignature(t, sigParams{w: 8, h: 8, prio: prio, workers: 1,
			flows: 4, generations: 3, linkLat: 4, noFF: true})
		for _, workers := range []int{1, 2, 4} {
			for _, noFF := range []bool{false, true} {
				if noFF && workers == 1 {
					continue // that cell is the reference itself
				}
				got := runSignature(t, sigParams{w: 8, h: 8, prio: prio, workers: workers,
					parThreshold: -1, flows: 4, generations: 3, linkLat: 4, noFF: noFF})
				if got != ref {
					t.Fatalf("prio=%v workers=%d noFF=%v diverged from conservative sequential:\nref %d bytes, got %d bytes",
						prio, workers, noFF, len(ref), len(got))
				}
			}
		}
	}
}

// TestFastForwardMatchesSequentialGiant repeats the fast-forward identity
// on giant meshes in the sparse regime fast-forward exists for: only
// every 64th node opens flows, so a handful of packets cross a mostly
// idle 32x32 / 64x64 mesh and NextEventCycle routinely reports windows
// many cycles wide. Every {workers} x {fast-forward, conservative} cell
// must match the conservative sequential reference byte-for-byte.
func TestFastForwardMatchesSequentialGiant(t *testing.T) {
	if testing.Short() {
		t.Skip("giant-mesh fast-forward matrix skipped in -short")
	}
	for _, mesh := range []int{32, 64} {
		for _, prio := range []bool{false, true} {
			ref := runSignature(t, sigParams{w: mesh, h: mesh, prio: prio, workers: 1,
				flows: 2, generations: 2, stride: 64, linkLat: 4, noFF: true})
			for _, workers := range []int{2, 4} {
				for _, noFF := range []bool{false, true} {
					got := runSignature(t, sigParams{w: mesh, h: mesh, prio: prio, workers: workers,
						parThreshold: -1, flows: 2, generations: 2, stride: 64, linkLat: 4, noFF: noFF})
					if got != ref {
						t.Fatalf("%dx%d prio=%v workers=%d noFF=%v diverged:\nref %d bytes, got %d bytes",
							mesh, mesh, prio, workers, noFF, len(ref), len(got))
					}
				}
			}
			// Fast-forward sequential (no pool at all) closes the matrix.
			got := runSignature(t, sigParams{w: mesh, h: mesh, prio: prio, workers: 1,
				flows: 2, generations: 2, stride: 64, linkLat: 4})
			if got != ref {
				t.Fatalf("%dx%d prio=%v sequential fast-forward diverged from conservative", mesh, mesh, prio)
			}
		}
	}
}

// TestRebalanceDeterminism pins the activity-balanced sharding: shard
// boundaries move at every rebalance epoch, but a re-cut partition only
// changes which worker executes a node, never the result. Aggressively
// small epochs (re-cut every fused cycle / every 7th) across worker
// counts must stay byte-identical to the sequential reference, and a
// negative epoch (rebalancing disabled) must too.
func TestRebalanceDeterminism(t *testing.T) {
	ref := runSignature(t, sigParams{w: 8, h: 8, prio: true, workers: 1, flows: 6, generations: 3})
	for _, workers := range []int{2, 4} {
		for _, epoch := range []int{-1, 1, 7} {
			got := runSignature(t, sigParams{w: 8, h: 8, prio: true, workers: workers,
				parThreshold: -1, flows: 6, generations: 3, rebalance: epoch})
			if got != ref {
				t.Fatalf("workers=%d rebalance=%d diverged from sequential:\nref %d bytes, got %d bytes",
					workers, epoch, len(ref), len(got))
			}
		}
	}
}

// TestParallelTickWithObserver checks the observer interaction: a recorder
// keeps every cycle on the sequential path (routers and NIs emit into one
// shared stream), even with sharding forced. Results and the recorded
// event stream must both match an observed run without a pool.
func TestParallelTickWithObserver(t *testing.T) {
	recSeq := obs.NewRecorder(1 << 20)
	ref := runSignature(t, sigParams{w: 4, h: 4, prio: true, workers: 1, flows: 12, generations: 3, rec: recSeq})
	recPar := obs.NewRecorder(1 << 20)
	got := runSignature(t, sigParams{w: 4, h: 4, prio: true, workers: 4, parThreshold: -1,
		flows: 12, generations: 3, rec: recPar})
	if got != ref {
		t.Fatal("observed parallel run diverged from observed sequential run")
	}
	seqEv, parEv := recSeq.Events(), recPar.Events()
	if len(seqEv) != len(parEv) {
		t.Fatalf("event counts differ: sequential %d, parallel %d", len(seqEv), len(parEv))
	}
	for i := range seqEv {
		if seqEv[i] != parEv[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, seqEv[i], parEv[i])
		}
	}
}

// TestFusedGate pins the gate in Network.Tick: with a pool attached and
// the default threshold, a cycle goes fused exactly when its work count
// (router-buffered flits plus pending links) reaches defaultParWork; a
// positive ParThreshold replaces the default; a negative one shards every
// cycle with any work, an injection-only cycle included; and an attached
// observer keeps every cycle sequential.
func TestFusedGate(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	// build returns a network with the pool attached whose sinks free
	// every delivery, so ticking it by hand never leaks packets.
	build := func(w, h, thr int) *Network {
		cfg := testConfig(w, h, true)
		cfg.ParThreshold = thr
		n := MustNetwork(cfg)
		for i := 0; i < cfg.Nodes(); i++ {
			n.SetSink(i, func(now uint64, pkt *Packet) { n.FreePacket(pkt) })
		}
		n.SetTickPool(pool)
		return n
	}
	// tick runs one cycle and reports whether it went fused.
	tick := func(n *Network, now uint64) bool {
		before := n.fusedCycles
		n.Tick(now)
		return n.fusedCycles > before
	}

	// Default threshold: a 16x16 mesh flooded with 8-flit packets starts
	// below the crossover and fills its buffers past it.
	n := build(16, 16, 0)
	rng := sim.NewRNG(5)
	for s := 0; s < n.Cfg.Nodes(); s++ {
		for k := 0; k < 48; k++ {
			if d := rng.Intn(n.Cfg.Nodes()); d != s {
				n.Send(0, n.NewPacket(s, d, ClassData, rng.Intn(NumVNets), nil))
			}
		}
	}
	var below, above int
	for now := uint64(0); now < 400 && above < 20; now++ {
		work := n.tickWork()
		if fused := tick(n, now); fused != (work >= defaultParWork) {
			t.Fatalf("cycle %d: work %d, default gate %d, fused=%v", now, work, defaultParWork, fused)
		}
		if work >= defaultParWork {
			above++
		} else {
			below++
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("load never crossed the gate: %d cycles below, %d at or above", below, above)
	}
	n.SetTickPool(nil)

	// A positive threshold replaces the default: any cycle with buffered
	// flits or pending links goes fused, an injection-only one does not.
	n = build(4, 4, 1)
	n.Send(0, n.NewPacket(0, 15, ClassCtrl, VNetRequest, nil))
	if tick(n, 0) {
		t.Fatal("ParThreshold 1: injection-only cycle went fused")
	}
	if n.tickWork() == 0 || !tick(n, 1) {
		t.Fatalf("ParThreshold 1: cycle with work %d stayed sequential", n.tickWork())
	}
	n.SetTickPool(nil)

	// Forced: the injection-only cycle goes fused too, but a cycle with
	// nothing to drain, route or inject does not.
	n = build(4, 4, -1)
	if tick(n, 0) {
		t.Fatal("forced: idle cycle went fused")
	}
	n.Send(1, n.NewPacket(0, 15, ClassCtrl, VNetRequest, nil))
	if !tick(n, 1) {
		t.Fatal("forced: injection-only cycle stayed sequential")
	}
	n.SetTickPool(nil)

	// Observer attached: sequential whatever the threshold.
	n = build(4, 4, -1)
	n.SetObserver(obs.NewRecorder(1 << 10))
	n.Send(0, n.NewPacket(0, 15, ClassCtrl, VNetRequest, nil))
	for now := uint64(0); n.Busy(); now++ {
		if tick(n, now) {
			t.Fatalf("observed cycle %d went fused", now)
		}
	}
	n.SetTickPool(nil)
}

// TestSetTickPoolSharding checks the shard partition: contiguous,
// exhaustive, and never wider than the pool.
func TestSetTickPoolSharding(t *testing.T) {
	for _, tc := range []struct{ w, h, workers int }{
		{2, 2, 2}, {4, 4, 3}, {4, 4, 4}, {8, 8, 5}, {3, 3, 16},
	} {
		n := MustNetwork(testConfig(tc.w, tc.h, false))
		pool := par.NewPool(tc.workers)
		n.SetTickPool(pool)
		e := n.exec
		if e == nil {
			t.Fatalf("%dx%d workers=%d: no executor attached", tc.w, tc.h, tc.workers)
		}
		nodes := tc.w * tc.h
		if len(e.shards) > tc.workers || len(e.shards) > nodes {
			t.Fatalf("%d shards for %d workers, %d nodes", len(e.shards), tc.workers, nodes)
		}
		next := 0
		for i := range e.shards {
			sh := &e.shards[i]
			if sh.lo != next || sh.hi < sh.lo {
				t.Fatalf("shard %d range [%d,%d), expected lo %d", i, sh.lo, sh.hi, next)
			}
			for node := sh.lo; node < sh.hi; node++ {
				if e.shardOf[node] != int32(i) {
					t.Fatalf("shardOf[%d] = %d, want %d", node, e.shardOf[node], i)
				}
			}
			next = sh.hi
		}
		if next != nodes {
			t.Fatalf("shards cover [0,%d), want [0,%d)", next, nodes)
		}
		n.SetTickPool(nil)
		if n.exec != nil {
			t.Fatal("detach left executor attached")
		}
		n.SetTickPool(par.NewPool(1))
		if n.exec != nil {
			t.Fatal("single-worker pool must not attach an executor")
		}
		pool.Close()
	}
}

// meshLinks collects every distinct link of a network: the four neighbour
// directions of every router plus both NI local links.
func meshLinks(n *Network) []*link {
	seen := make(map[*link]bool)
	var links []*link
	add := func(l *link) {
		if l != nil && !seen[l] {
			seen[l] = true
			links = append(links, l)
		}
	}
	for _, r := range n.Routers {
		for d := Dir(0); d < NumDirs; d++ {
			add(r.inLink[d])
			add(r.outLink[d])
		}
	}
	for _, ni := range n.NIs {
		add(ni.toRouter)
		add(ni.fromRouter)
	}
	return links
}

// TestFusedShardLinkClassification pins the fused-phase dependence rule:
// for every link of several mesh sizes and shard counts, shardLocal must
// agree with a brute-force membership scan of the shard ranges — a link
// is drainable inside a shard iff both its endpoint nodes fall in that
// shard's [lo, hi) range. It also checks the structural consequences the
// executor relies on: NI local links are always shard-local, and on a
// contiguous row-major partition only links crossing a shard boundary are
// classified for the central pre-drain.
func TestFusedShardLinkClassification(t *testing.T) {
	for _, tc := range []struct{ w, h int }{{4, 4}, {8, 8}, {32, 32}} {
		n := MustNetwork(testConfig(tc.w, tc.h, false))
		for _, workers := range []int{2, 3, 4, 7, 8} {
			pool := par.NewPool(workers)
			n.SetTickPool(pool)
			e := n.exec
			// bruteShard finds the shard whose range contains the node by
			// scanning all ranges, independently of shardOf.
			bruteShard := func(node int32) int32 {
				for i := range e.shards {
					if int(node) >= e.shards[i].lo && int(node) < e.shards[i].hi {
						return int32(i)
					}
				}
				t.Fatalf("%dx%d workers=%d: node %d in no shard", tc.w, tc.h, workers, node)
				return -1
			}
			var local, cross int
			for _, l := range meshLinks(n) {
				ss, ds := bruteShard(l.srcNode), bruteShard(l.dstNode)
				gotShard, gotLocal := e.shardLocal(l)
				if wantLocal := ss == ds; gotLocal != wantLocal {
					t.Fatalf("%dx%d workers=%d link %d->%d: shardLocal=%v, brute force says %v",
						tc.w, tc.h, workers, l.srcNode, l.dstNode, gotLocal, wantLocal)
				}
				if gotLocal {
					local++
					if gotShard != ss {
						t.Fatalf("%dx%d workers=%d link %d->%d: owner shard %d, want %d",
							tc.w, tc.h, workers, l.srcNode, l.dstNode, gotShard, ss)
					}
					continue
				}
				cross++
				if l.srcNode == l.dstNode {
					t.Fatalf("%dx%d workers=%d: NI local link at node %d classified cross-shard",
						tc.w, tc.h, workers, l.srcNode)
				}
			}
			if cross == 0 {
				t.Fatalf("%dx%d workers=%d: no cross-shard links — partition degenerate", tc.w, tc.h, workers)
			}
			// Contiguity bound: a directed neighbour link crosses iff the
			// boundary between consecutive shards separates its endpoints;
			// with S shards there are S-1 boundaries and each is crossed by
			// at most 2*(width+1) directed links (the row-spanning vertical
			// pairs plus at most one horizontal pair when a boundary splits
			// a row).
			if max := (len(e.shards) - 1) * 2 * (tc.w + 1); cross > max {
				t.Fatalf("%dx%d workers=%d: %d cross-shard links exceeds boundary bound %d",
					tc.w, tc.h, workers, cross, max)
			}
			n.SetTickPool(nil)
			pool.Close()
		}
	}
}

func TestMaskToRange(t *testing.T) {
	all := ^uint64(0)
	for _, tc := range []struct {
		word     uint64
		base     int
		lo, hi   int
		expected uint64
	}{
		{all, 0, 0, 64, all},
		{all, 0, 3, 64, all &^ 0x7},
		{all, 0, 0, 5, 0x1f},
		{all, 64, 70, 80, 0xffc0},
		{all, 64, 0, 64, 0}, // range entirely below this word
		{0, 0, 0, 64, 0},
	} {
		if got := maskToRange(tc.word, tc.base, tc.lo, tc.hi); got != tc.expected {
			t.Fatalf("maskToRange(%#x, %d, %d, %d) = %#x, want %#x",
				tc.word, tc.base, tc.lo, tc.hi, got, tc.expected)
		}
	}
}
