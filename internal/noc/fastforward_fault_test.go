package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// delayPlan injects link delays aggressively enough that most link queues
// carry a fault-delayed event at some point, which is exactly the regime
// where the queues stop being sorted by `at`: a delayed head blocks
// earlier-due events behind it, and an already-due event can linger in a
// queue across a fast-forward window.
func delayPlan() fault.Plan {
	return fault.Plan{Seed: 23, DelayRate: 0.5, DelayCycles: 40, ClassMask: 0xffff}
}

// delayedNet builds a 4x4 priority mesh under delayPlan with a
// deterministic all-to-all workload and delivery-recording sinks.
func delayedNet(t *testing.T) (*Network, *fault.Injector, *strings.Builder) {
	t.Helper()
	cfg := testConfig(4, 4, true)
	n := MustNetwork(cfg)
	inj := fault.NewInjector(delayPlan())
	n.SetFaults(inj)

	var sb strings.Builder
	for i := 0; i < cfg.Nodes(); i++ {
		node := i
		n.SetSink(node, func(now uint64, pkt *Packet) {
			fmt.Fprintf(&sb, "d n=%d id=%d src=%d hops=%d at=%d\n", node, pkt.ID, pkt.Src, pkt.Hops, now)
			n.FreePacket(pkt)
		})
	}
	rng := sim.NewRNG(31)
	for s := 0; s < cfg.Nodes(); s++ {
		for k := 0; k < 6; k++ {
			d := rng.Intn(cfg.Nodes())
			if d == s {
				continue
			}
			class := []Class{ClassData, ClassCtrl, ClassLock, ClassWakeup}[k%4]
			vn := VNetRequest
			if class == ClassData {
				vn = VNetResponse
			}
			pkt := n.NewPacket(s, d, class, vn, nil)
			if class == ClassLock {
				pkt.Prio = core.Priority{Check: true, Class: uint8(1 + k%8), Prog: uint16(s % 4)}
			}
			n.Send(0, pkt)
		}
	}
	return n, inj, &sb
}

// TestNextEventCycleFaultDelayFloor is the regression test for
// NextEventCycle's conservative now+1 floor under fault-injected link
// delays. With delays in flight, link queues are FIFO but not sorted by
// `at`: an event can be due at or before `now` while sitting behind a
// delayed head, and the head-based horizon of an NI queue can trail the
// clock after a skip. The floor clamps every such case to now+1 — if it
// ever regressed to returning a cycle <= now, the engine's wake heap
// would stop advancing the clock (a due-now entry re-inserted forever).
// The walk below drives the network exclusively through
// NextEventCycle-sized jumps, so a stuck horizon fails fast instead of
// timing out.
func TestNextEventCycleFaultDelayFloor(t *testing.T) {
	n, inj, _ := delayedNet(t)
	now := uint64(0)
	steps := 0
	for n.Busy() {
		next := n.NextEventCycle(now)
		if next <= now {
			t.Fatalf("NextEventCycle(%d) = %d, floor now+1 violated", now, next)
		}
		if next == sim.Never {
			t.Fatalf("NextEventCycle(%d) = Never while Busy", now)
		}
		now = next
		n.Tick(now)
		if steps++; steps > 100000 {
			t.Fatal("network did not drain")
		}
	}
	if inj.Stats.DelayedFlits.Load() == 0 {
		t.Fatal("plan injected no delays; test exercised nothing")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckCreditBounds(); err != nil {
		t.Fatal(err)
	}
}

// TestFastForwardFaultDelayIdentity holds fast-forward to the engine
// equivalence bar in the fault-delay regime: skipping to NextEventCycle
// horizons must leave every delivery (node, packet, hop count, cycle) and
// the final census byte-identical to ticking the network on every busy
// cycle (the busyTicked oracle).
func TestFastForwardFaultDelayIdentity(t *testing.T) {
	run := func(noFF bool) string {
		n, inj, sb := delayedNet(t)
		e := sim.NewEngine()
		e.Register(engineView(n, noFF))
		e.MaxCycles = 100000
		e.RunUntil(func() bool { return !n.Busy() })
		if n.Busy() {
			t.Fatal("network not drained")
		}
		fmt.Fprintf(sb, "census %+v\n", n.CensusNow())
		fmt.Fprintf(sb, "stats %+v\n", inj.SnapshotStats())
		return sb.String()
	}
	ref := run(true) // tick every cycle
	if got := run(false); got != ref {
		t.Fatalf("fast-forward diverged from per-cycle reference under fault delays:\nref:\n%s\ngot:\n%s", ref, got)
	}
}
