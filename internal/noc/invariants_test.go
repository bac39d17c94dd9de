package noc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// checkInvariants cross-checks every incrementally maintained counter (the
// O(1) activity/phase gates and the per-router VC-state counters) against a
// full recomputation from first principles.
func checkInvariants(t *testing.T, n *Network, now uint64) {
	t.Helper()
	if n.Busy() != n.scanBusy() {
		t.Fatalf("cycle %d: Busy=%v scanBusy=%v act=%d", now, n.Busy(), n.scanBusy(), n.activity)
	}
	rf, qp := 0, 0
	for _, ni := range n.NIs {
		qp += ni.QueuedPkts
	}
	for _, r := range n.Routers {
		rf += r.flitCount
	}
	if rf != n.routerFlits || qp != n.queuedPkts {
		t.Fatalf("cycle %d: routerFlits %d/%d queuedPkts %d/%d", now, rf, n.routerFlits, qp, n.queuedPkts)
	}
	w := &n.wheel
	wf, wc, we := 0, 0, 0
	each(w, w.flits, func(uint64, flitEvent) { wf++ })
	each(w, w.credits, func(uint64, uint32) { wc++ })
	each(w, w.ejects, func(uint64, flitEvent) { we++ })
	if wf != w.nflits || wc != w.ncredits || we != w.nejects {
		t.Fatalf("cycle %d: wheel flits %d/%d credits %d/%d ejections %d/%d",
			now, wf, w.nflits, wc, w.ncredits, we, w.nejects)
	}
	for _, r := range n.Routers {
		routed, active, fc := 0, 0, 0
		var pf [NumDirs]int
		var mr, ma [NumDirs]uint64
		for d := Dir(0); d < NumDirs && r.in != nil; d++ {
			for v := 0; v < r.cfg.VCs; v++ {
				vc := r.vc(d, v)
				fc += int(vc.n)
				pf[d] += int(vc.n)
				switch vc.state {
				case vcRouted:
					routed++
					mr[d] |= 1 << uint(v)
				case vcActive:
					active++
					ma[d] |= 1 << uint(v)
				}
			}
		}
		if mr != r.routedMask || ma != r.activeMask {
			t.Fatalf("cycle %d router %d: routedMask %v/%v activeMask %v/%v",
				now, r.id, mr, r.routedMask, ma, r.activeMask)
		}
		if routed != r.routedCount || active != r.activeCount || fc != r.flitCount || pf != r.portFlits {
			t.Fatalf("cycle %d router %d: routed %d/%d active %d/%d flits %d/%d ports %v/%v",
				now, r.id, routed, r.routedCount, active, r.activeCount, fc, r.flitCount,
				pf, r.portFlits)
		}
	}
}

func TestNetworkInvariants(t *testing.T) {
	for _, prio := range []bool{false, true} {
		cfg := testConfig(8, 8, prio)
		n := MustNetwork(cfg)
		for i := 0; i < cfg.Nodes(); i++ {
			n.SetSink(i, func(now uint64, pkt *Packet) {})
		}
		e := sim.NewEngine()
		e.Register(n)
		rng := sim.NewRNG(11)
		inj := &sim.FuncComponent{TickFn: func(now uint64) {
			if now >= 3000 {
				return
			}
			for s := 0; s < cfg.Nodes(); s++ {
				if rng.Bool(0.06) {
					n.Send(now, n.NewPacket(s, 36, ClassData, VNetResponse, nil))
				}
			}
			if now%40 == 0 {
				for _, s := range []int{0, 7, 56, 63} {
					pkt := n.NewPacket(s, 36, ClassLock, VNetRequest, nil)
					pkt.Prio = core.Priority{Check: true, Class: 8}
					n.Send(now, pkt)
				}
			}
		}, NextWakeFn: func(now uint64) uint64 {
			if now < 3000 {
				return now + 1
			}
			return sim.Never
		}}
		e.Register(inj)
		chk := &sim.FuncComponent{TickFn: func(now uint64) {
			checkInvariants(t, n, now)
		}, NextWakeFn: func(now uint64) uint64 { return now + 1 }}
		e.Register(chk)
		e.MaxCycles = 20000
		e.RunUntil(func() bool { return e.Now() > 3000 && !n.Busy() })
		t.Logf("prio=%v end=%d busy=%v act=%d", prio, e.Now(), n.Busy(), n.activity)
	}
}
