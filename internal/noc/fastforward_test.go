package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// sigParams describes one runSignature configuration.
type sigParams struct {
	w, h        int
	prio        bool
	flows       int // injection flows opened per node
	generations int // ping-pong bounces per delivered packet
	stride      int // open flows on every stride-th node only (0 = 1 = all)
	linkLat     int // Config.LinkLatency override (0 keeps the default)
	noFF        bool
}

// runSignature drives a multi-generation ping-pong workload on a WxH mesh
// and returns a textual signature of everything observable: the exact
// delivery sequence (order, cycle, hops, latency per packet), the final
// network statistics, and per-router/per-NI counters. Two runs are
// behaviourally identical iff their signatures are byte-equal.
//
// noFF registers the busyTicked oracle instead of the bare network.
func runSignature(t *testing.T, p sigParams) string {
	t.Helper()
	cfg := testConfig(p.w, p.h, p.prio)
	if p.linkLat > 0 {
		cfg.LinkLatency = p.linkLat
	}
	n := MustNetwork(cfg)

	var sb strings.Builder
	// Each delivery bounces a response back to the sender for a fixed
	// number of generations, so the network stays loaded across many
	// cycles at varying load.
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
		t.Fatalf("network not drained (prio=%v noFF=%v)", p.prio, p.noFF)
	}
	if n.Busy() != n.scanBusy() {
		t.Fatal("Busy()/scanBusy() disagree at end")
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

// TestFastForwardMatchesSequential is the idle-window fast-forward
// identity: the network's NextWake answers NextEventCycle, so the engine
// jumps straight to the next cycle where the network has work, and the
// simulation must still be byte-identical to the conservative
// tick-every-busy-cycle discipline of the busyTicked oracle, under both
// arbitration policies. LinkLatency 4 opens multi-cycle flight gaps so
// the skip path is actually taken.
func TestFastForwardMatchesSequential(t *testing.T) {
	for _, prio := range []bool{false, true} {
		ref := runSignature(t, sigParams{w: 8, h: 8, prio: prio,
			flows: 4, generations: 3, linkLat: 4, noFF: true})
		got := runSignature(t, sigParams{w: 8, h: 8, prio: prio,
			flows: 4, generations: 3, linkLat: 4})
		if got != ref {
			t.Fatalf("prio=%v: fast-forward diverged from conservative:\nref %d bytes, got %d bytes",
				prio, len(ref), len(got))
		}
	}
}

// TestFastForwardMatchesSequentialGiant repeats the fast-forward identity
// on giant meshes in the sparse regime fast-forward exists for: only
// every 64th node opens flows, so a handful of packets cross a mostly
// idle 32x32 / 64x64 mesh and NextEventCycle routinely reports windows
// many cycles wide.
func TestFastForwardMatchesSequentialGiant(t *testing.T) {
	if testing.Short() {
		t.Skip("giant-mesh fast-forward matrix skipped in -short")
	}
	for _, mesh := range []int{32, 64} {
		for _, prio := range []bool{false, true} {
			ref := runSignature(t, sigParams{w: mesh, h: mesh, prio: prio,
				flows: 2, generations: 2, stride: 64, linkLat: 4, noFF: true})
			got := runSignature(t, sigParams{w: mesh, h: mesh, prio: prio,
				flows: 2, generations: 2, stride: 64, linkLat: 4})
			if got != ref {
				t.Fatalf("%dx%d prio=%v: fast-forward diverged from conservative", mesh, mesh, prio)
			}
		}
	}
}

// TestSparseFastForwardPinned pins the engine's schedule on the sparse
// LinkLatency-8 fixture of BenchmarkNetworkTickSparse: the fast-forward
// identity tests compare against ticking every busy cycle, and both agree
// whenever the network only wakes early, so a change that ticks extra
// cycles would pass them; it moves these counts.
func TestSparseFastForwardPinned(t *testing.T) {
	for _, c := range []struct {
		mesh            int
		ticked, skipped uint64
	}{
		{8, 679, 12162},
		{32, 2119, 23682},
	} {
		e, delivered := sparseFixture(c.mesh, false)
		e.RunUntil(func() bool { return *delivered >= 40 })
		if e.TickedCycles != c.ticked || e.SkippedCycles != c.skipped {
			t.Errorf("%dx%d: ticked %d and skipped %d cycles, want %d and %d",
				c.mesh, c.mesh, e.TickedCycles, e.SkippedCycles, c.ticked, c.skipped)
		}
	}
}
