package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// delayPlan injects link delays aggressively enough that most links carry
// a fault-delayed flit at some point, which is exactly the regime where a
// flit's due cycle is not its send cycle plus the link latency: a delayed
// flit holds back the flits behind it on its link (the wheel clamps their
// due cycles to its own), and an already-due flit can wait across a
// fast-forward window.
func delayPlan(delay uint64) fault.Plan {
	return fault.Plan{Seed: 23, DelayRate: 0.5, DelayCycles: delay, ClassMask: 0xffff}
}

// delayedNet builds a 4x4 priority mesh under delayPlan(delay) with a
// deterministic all-to-all workload and delivery-recording sinks.
func delayedNet(t *testing.T, delay uint64) (*Network, *fault.Injector, *strings.Builder) {
	t.Helper()
	cfg := testConfig(4, 4, true)
	n := MustNetwork(cfg)
	inj := fault.NewInjector(delayPlan(delay))
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
// delays, where flits wait behind delayed ones and already-due
// router-bound flits are drained a cycle late. If the floor ever
// regressed to returning a cycle <= now, the engine's wake heap would
// stop advancing the clock (a due-now entry re-inserted forever). The
// walk below drives the network exclusively through NextEventCycle-sized
// jumps, so a stuck horizon fails fast instead of timing out.
func TestNextEventCycleFaultDelayFloor(t *testing.T) {
	n, inj, _ := delayedNet(t, 40)
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
// cycle (the busyTicked oracle). A 100-cycle delay outgrows one bitmap
// word of the event wheel, so both wheel layouts run.
func TestFastForwardFaultDelayIdentity(t *testing.T) {
	for _, delay := range []uint64{40, 100} {
		run := func(noFF bool) string {
			n, inj, sb := delayedNet(t, delay)
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
			t.Fatalf("delay %d: fast-forward diverged from per-cycle reference under fault delays:\nref:\n%s\ngot:\n%s", delay, ref, got)
		}
	}
}

// TestDelayedFlitHoldsBackItsLink pins the link FIFO under fault delays:
// a flit sent after a delayed one on the same link, on another VC, must
// not reach the downstream router first. A lock packet (delayed on every
// link) and a control packet (never delayed) leave NI 0 one cycle apart
// toward node 3 of a 4x1 mesh; at every hop the control packet's flit
// must commit no earlier than the lock packet's.
func TestDelayedFlitHoldsBackItsLink(t *testing.T) {
	cfg := testConfig(4, 1, false)
	n := MustNetwork(cfg)
	n.SetFaults(fault.NewInjector(fault.Plan{DelayRate: 1, DelayCycles: 20, ClassMask: 1 << uint(ClassLock)}))
	n.SetSink(3, func(uint64, *Packet) {})
	lock := n.NewPacket(0, 3, ClassLock, VNetRequest, nil)
	ctrl := n.NewPacket(0, 3, ClassCtrl, VNetResponse, nil)
	n.Send(0, lock)
	n.Send(0, ctrl)
	// arrived[p][r] is the cycle p's flit first sat in router r's buffers.
	arrived := map[*Packet][]uint64{lock: make([]uint64, 4), ctrl: make([]uint64, 4)}
	for now := uint64(1); n.Busy(); now++ {
		if now > 1000 {
			t.Fatal("network did not drain")
		}
		n.Tick(now)
		for _, r := range n.Routers {
			for i := range r.in {
				if vc := &r.in[i]; vc.n > 0 && arrived[vc.pkt] != nil && arrived[vc.pkt][r.id] == 0 {
					arrived[vc.pkt][r.id] = now
				}
			}
		}
	}
	if n.Faults().Stats.DelayedFlits.Load() == 0 {
		t.Fatal("no flit was delayed")
	}
	for r := 0; r < 4; r++ {
		a, c := arrived[lock][r], arrived[ctrl][r]
		if a == 0 || c == 0 || c < a {
			t.Errorf("router %d: delayed lock flit arrived at %d, the control flit behind it at %d", r, a, c)
		}
	}
}

// TestEjectionOrderUnderFaultDelays pins the order of same-cycle
// deliveries: NIs take their flits in ascending node order, so deliveries
// within one cycle come in ascending node order even when fault delays
// make a later send to a lower node due in the same cycle as an earlier
// send to a higher one.
func TestEjectionOrderUnderFaultDelays(t *testing.T) {
	for _, delay := range []uint64{1, 2, 3, 5, 8, 13, 40} {
		n, inj, _ := delayedNet(t, delay)
		var lastAt uint64
		lastNode, same, bad := -1, 0, 0
		for i := range n.NIs {
			node := i
			n.SetSink(node, func(now uint64, pkt *Packet) {
				if now == lastAt {
					same++
					if node < lastNode {
						bad++
					}
				}
				lastAt, lastNode = now, node
				n.FreePacket(pkt)
			})
		}
		for now := uint64(1); n.Busy(); now++ {
			if now > 100000 {
				t.Fatalf("delay %d: network did not drain", delay)
			}
			n.Tick(now)
		}
		if inj.Stats.DelayedFlits.Load() == 0 || same == 0 {
			t.Fatalf("delay %d: %d delayed flits, %d same-cycle deliveries; the test exercised nothing",
				delay, inj.Stats.DelayedFlits.Load(), same)
		}
		if bad > 0 {
			t.Errorf("delay %d: %d of %d same-cycle deliveries came after a higher node's", delay, bad, same)
		}
	}
}
