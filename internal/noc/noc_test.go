package noc

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func testConfig(w, h int, prio bool) Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Priority = prio
	return cfg
}

// runNet drives the network until quiescent or maxCycles.
func runNet(t *testing.T, n *Network, maxCycles uint64) uint64 {
	t.Helper()
	e := sim.NewEngine()
	e.Register(n)
	e.MaxCycles = maxCycles
	end := e.RunUntil(func() bool { return !n.Busy() })
	if n.Busy() {
		t.Fatalf("network not drained after %d cycles", maxCycles)
	}
	return end
}

func TestConfigValidate(t *testing.T) {
	cfg := Config{Width: 4, Height: 4}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.VCs != 6 || cfg.VCDepth != 4 || cfg.LinkLatency != 1 || cfg.DataPacketFlits != 8 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"zero width", Config{Width: 0, Height: 4}, "Width/Height"},
		{"VCs below vnets", Config{Width: 2, Height: 2, VCs: 2}, "VCs"},
		{"VCDepth past the bound", Config{Width: 2, Height: 2, VCDepth: MaxVCDepth + 1}, "VCDepth"},
		{"VCDepth past int32", Config{Width: 2, Height: 2, VCDepth: 1 << 31}, "VCDepth"},
		{"DataPacketFlits past the bound", Config{Width: 2, Height: 2, DataPacketFlits: MaxPacketFlits + 1}, "DataPacketFlits"},
		{"LinkLatency past the bound", Config{Width: 2, Height: 2, LinkLatency: MaxLinkLatency + 1}, "LinkLatency"},
		{"mesh past the credit index", Config{Width: 1 << 14, Height: 1 << 13}, "Width/Height"},
	} {
		err := c.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Fatalf("%s: Validate() = %v, want a *ConfigError on %s", c.name, err, c.field)
		}
	}
	atBounds := Config{Width: 2, Height: 2, VCDepth: MaxVCDepth, DataPacketFlits: MaxPacketFlits, LinkLatency: MaxLinkLatency}
	if err := atBounds.Validate(); err != nil {
		t.Fatalf("buffers at the bounds rejected: %v", err)
	}
}

func TestVNetPartition(t *testing.T) {
	cfg := testConfig(2, 2, false)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for v := 0; v < cfg.VCs; v++ {
		seen[cfg.VNetOf(v)]++
	}
	if len(seen) != NumVNets {
		t.Fatalf("expected %d vnets, got %v", NumVNets, seen)
	}
	for vn := 0; vn < NumVNets; vn++ {
		lo, hi := cfg.VCRange(vn)
		if hi <= lo {
			t.Fatalf("vnet %d empty range [%d,%d)", vn, lo, hi)
		}
		for v := lo; v < hi; v++ {
			if cfg.VNetOf(v) != vn {
				t.Fatalf("vc %d: VNetOf=%d want %d", v, cfg.VNetOf(v), vn)
			}
		}
	}
}

func TestSingleFlitDelivery(t *testing.T) {
	n := MustNetwork(testConfig(4, 4, false))
	var got *Packet
	var gotAt uint64
	n.SetSink(15, func(now uint64, pkt *Packet) { got, gotAt = pkt, now })
	pkt := n.NewPacket(0, 15, ClassCtrl, VNetRequest, "hello")
	n.Send(0, pkt)
	runNet(t, n, 1000)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Payload != "hello" {
		t.Fatalf("payload corrupted: %v", got.Payload)
	}
	// 0 -> 15 on a 4x4 mesh is 3+3 hops plus src/dst routers = 7 routers.
	if got.Hops != 7 {
		t.Fatalf("hops = %d, want 7", got.Hops)
	}
	if gotAt == 0 || got.DeliveredAt != gotAt {
		t.Fatalf("timestamps inconsistent: at=%d pkt=%d", gotAt, got.DeliveredAt)
	}
}

func TestMultiFlitDelivery(t *testing.T) {
	n := MustNetwork(testConfig(4, 4, false))
	var got *Packet
	n.SetSink(3, func(now uint64, pkt *Packet) { got = pkt })
	pkt := n.NewPacket(12, 3, ClassData, VNetResponse, 42)
	n.Send(0, pkt)
	runNet(t, n, 1000)
	if got == nil {
		t.Fatal("data packet not delivered")
	}
	if got.Size != 8 {
		t.Fatalf("size = %d, want 8", got.Size)
	}
	if got.NetLatency() < 8 {
		t.Fatalf("8-flit packet delivered impossibly fast: %d cycles", got.NetLatency())
	}
}

// TestZeroLoadLatency pins the idle-mesh latency of every ordered pair on
// an 8x8 mesh against its closed form. A packet that crosses h routers
// (Manhattan distance + 1) pays one router cycle per router and one link
// traversal per hop, the injection and ejection links included: a 1-flit
// packet's NetLatency is (h+1)*LinkLatency + h. The body flits of an
// 8-flit packet follow its head one per cycle, adding 7 cycles at
// LinkLatency 1; at LinkLatency 3 the credit round trip outgrows the
// 4-flit VC and the tail arrives 10 cycles after the head.
func TestZeroLoadLatency(t *testing.T) {
	for _, routing := range []Routing{RoutingXY, RoutingYX} {
		for _, lc := range []struct{ link, tail uint64 }{{1, 7}, {3, 10}} {
			cfg := testConfig(8, 8, false)
			cfg.Routing = routing
			cfg.LinkLatency = int(lc.link)
			n := MustNetwork(cfg)
			var got *Packet
			for i := 0; i < cfg.Nodes(); i++ {
				n.SetSink(i, func(now uint64, pkt *Packet) { got = pkt })
			}
			e := sim.NewEngine()
			e.Register(n)
			for src := 0; src < cfg.Nodes(); src++ {
				for dst := 0; dst < cfg.Nodes(); dst++ {
					if src == dst {
						continue
					}
					h := uint64(cfg.ManhattanHops(src, dst))
					for _, class := range []Class{ClassCtrl, ClassData} {
						got = nil
						n.Send(e.Now(), n.NewPacket(src, dst, class, VNetRequest, nil))
						e.RunUntil(func() bool { return !n.Busy() })
						if got == nil {
							t.Fatalf("%v link=%d %d->%d %v: not delivered", routing, lc.link, src, dst, class)
						}
						want := (h+1)*lc.link + h
						if got.Size > 1 {
							want += lc.tail
						}
						if got.Hops != int(h) || got.NetLatency() != want {
							t.Fatalf("%v link=%d %d->%d %v: %d routers in %d cycles, want %d in %d",
								routing, lc.link, src, dst, class, got.Hops, got.NetLatency(), h, want)
						}
						n.FreePacket(got)
					}
				}
			}
		}
	}
}

func TestLocalLoopback(t *testing.T) {
	n := MustNetwork(testConfig(2, 2, false))
	var got *Packet
	n.SetSink(1, func(now uint64, pkt *Packet) { got = pkt })
	n.Send(0, n.NewPacket(1, 1, ClassLock, VNetRequest, nil))
	runNet(t, n, 100)
	if got == nil {
		t.Fatal("loopback packet not delivered")
	}
	if n.Stats.LocalDeliveries != 1 {
		t.Fatalf("LocalDeliveries = %d", n.Stats.LocalDeliveries)
	}
	if got.Hops != 0 {
		t.Fatalf("loopback should not hop, got %d", got.Hops)
	}
}

func TestXYRoutingPath(t *testing.T) {
	cfg := testConfig(8, 8, false)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := MustNetwork(cfg)
	// Check hop counts for a few src/dst pairs: XY is minimal.
	cases := [][2]int{{0, 63}, {7, 56}, {9, 9}, {0, 7}, {0, 56}, {27, 36}}
	for _, c := range cases {
		src, dst := c[0], c[1]
		if src == dst {
			continue
		}
		var got *Packet
		n.SetSink(dst, func(now uint64, pkt *Packet) { got = pkt })
		n.Send(0, n.NewPacket(src, dst, ClassCtrl, VNetForward, nil))
		runNet(t, n, 1000)
		if got == nil {
			t.Fatalf("%d->%d not delivered", src, dst)
		}
		want := cfg.ManhattanHops(src, dst)
		if got.Hops != want {
			t.Fatalf("%d->%d hops=%d want %d", src, dst, got.Hops, want)
		}
		n.SetSink(dst, nil)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	// Every (src,dst) pair on a 3x3 mesh delivers exactly once.
	cfg := testConfig(3, 3, false)
	n := MustNetwork(cfg)
	delivered := make(map[uint64]bool)
	for i := 0; i < cfg.Nodes(); i++ {
		n.SetSink(i, func(now uint64, pkt *Packet) {
			if delivered[pkt.ID] {
				panic("duplicate delivery")
			}
			if pkt.Dst != i {
				panic("misrouted packet")
			}
			delivered[pkt.ID] = true
		})
	}
	sent := 0
	for s := 0; s < cfg.Nodes(); s++ {
		for d := 0; d < cfg.Nodes(); d++ {
			if s == d {
				continue
			}
			n.Send(0, n.NewPacket(s, d, ClassCtrl, VNetRequest, nil))
			sent++
		}
	}
	runNet(t, n, 10000)
	if len(delivered) != sent {
		t.Fatalf("delivered %d of %d packets", len(delivered), sent)
	}
}

func TestHeavyLoadDrains(t *testing.T) {
	// Saturating bursts of 8-flit packets across vnets must all drain with
	// both allocator policies (checks credits, VC reuse, deadlock-freedom).
	for _, prio := range []bool{false, true} {
		cfg := testConfig(4, 4, prio)
		n := MustNetwork(cfg)
		count := 0
		for i := 0; i < cfg.Nodes(); i++ {
			n.SetSink(i, func(now uint64, pkt *Packet) { count++ })
		}
		rng := sim.NewRNG(7)
		sent := 0
		for s := 0; s < cfg.Nodes(); s++ {
			for k := 0; k < 30; k++ {
				d := rng.Intn(cfg.Nodes())
				if d == s {
					continue
				}
				vn := rng.Intn(NumVNets)
				class := ClassData
				if vn == VNetRequest {
					class = ClassCtrl
				}
				pkt := n.NewPacket(s, d, class, vn, nil)
				if prio && k%5 == 0 {
					pkt.Class = ClassLock
					pkt.Prio = core.Priority{Check: true, Class: 4, Prog: 1}
				}
				n.Send(0, pkt)
				sent++
			}
		}
		runNet(t, n, 200000)
		if count != sent {
			t.Fatalf("prio=%v: delivered %d of %d", prio, count, sent)
		}
	}
}

func TestPriorityExpeditesLockPackets(t *testing.T) {
	// Under contention on a shared column, lock packets should see lower
	// latency with priority arbitration than without.
	latency := func(prio bool) float64 {
		cfg := testConfig(8, 8, prio)
		n := MustNetwork(cfg)
		for i := 0; i < cfg.Nodes(); i++ {
			n.SetSink(i, func(now uint64, pkt *Packet) {})
		}
		e := sim.NewEngine()
		e.Register(n)
		rng := sim.NewRNG(11)
		// Background data traffic converging on node 36 + lock packets from
		// the corners, injected over 3000 cycles.
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
		e.MaxCycles = 100000
		e.RunUntil(func() bool { return e.Now() > 3000 && !n.Busy() })
		if n.Busy() {
			t.Fatalf("prio=%v network did not drain", prio)
		}
		return n.Stats.NetLatency[ClassLock].Mean()
	}
	base := latency(false)
	ocor := latency(true)
	if ocor >= base {
		t.Fatalf("priority arbitration did not expedite lock packets: base=%.1f ocor=%.1f", base, ocor)
	}
}

func TestWakeupLosesToLockUnderPriority(t *testing.T) {
	// A wakeup and a batch of lock packets contending for the same path:
	// with OCOR the wakeup must be delivered after the lock packets that
	// were injected simultaneously.
	cfg := testConfig(4, 1, true)
	n := MustNetwork(cfg)
	var order []Class
	n.SetSink(3, func(now uint64, pkt *Packet) { order = append(order, pkt.Class) })
	pol := core.DefaultPolicy()
	// Same source so they fight for the same injection link.
	wake := n.NewPacket(0, 3, ClassWakeup, VNetRequest, nil)
	wake.Prio = pol.WakeupPriority(0)
	n.Send(0, wake)
	for i := 0; i < 3; i++ {
		lk := n.NewPacket(0, 3, ClassLock, VNetRequest, nil)
		lk.Prio = pol.LockPriority(1+i, 0)
		n.Send(0, lk)
	}
	runNet(t, n, 1000)
	if len(order) != 4 {
		t.Fatalf("delivered %d of 4", len(order))
	}
	if order[len(order)-1] != ClassWakeup {
		t.Fatalf("wakeup was not last: %v", order)
	}
}

func TestLeastRTRFirst(t *testing.T) {
	// Lock packets with different RTR injected at the same cycle from the
	// same node: smallest RTR (highest class) must arrive first under OCOR.
	cfg := testConfig(4, 1, true)
	n := MustNetwork(cfg)
	var order []int
	n.SetSink(3, func(now uint64, pkt *Packet) { order = append(order, pkt.Payload.(int)) })
	pol := core.DefaultPolicy()
	rtrs := []int{100, 3, 60, 128, 20}
	for _, rtr := range rtrs {
		pkt := n.NewPacket(0, 3, ClassLock, VNetRequest, rtr)
		pkt.Prio = pol.LockPriority(rtr, 0)
		n.Send(0, pkt)
	}
	runNet(t, n, 1000)
	if len(order) != len(rtrs) {
		t.Fatalf("delivered %d of %d", len(order), len(rtrs))
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] > order[i] {
			t.Fatalf("RTR order violated: %v", order)
		}
	}
}

func TestSlowProgressFirst(t *testing.T) {
	cfg := testConfig(4, 1, true)
	n := MustNetwork(cfg)
	var order []int
	n.SetSink(3, func(now uint64, pkt *Packet) { order = append(order, pkt.Payload.(int)) })
	pol := core.DefaultPolicy()
	// Fast-progress thread with tiny RTR vs slow-progress thread with big
	// RTR: slow progress wins (rule 1 dominates rule 3).
	fast := n.NewPacket(0, 3, ClassLock, VNetRequest, 2)
	fast.Prio = pol.LockPriority(1, 120) // highest RTR class, fast progress
	slow := n.NewPacket(0, 3, ClassLock, VNetRequest, 1)
	slow.Prio = pol.LockPriority(128, 0) // lowest RTR class, slow progress
	n.Send(0, fast)
	n.Send(0, slow)
	runNet(t, n, 1000)
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("slow-progress packet was not first: %v", order)
	}
}

func TestFIFOWithinVC(t *testing.T) {
	// Equal-priority packets between one src/dst pair must be delivered in
	// injection order (FIFO fairness within VCs, §4.2).
	for _, prio := range []bool{false, true} {
		cfg := testConfig(6, 1, prio)
		n := MustNetwork(cfg)
		var order []int
		n.SetSink(5, func(now uint64, pkt *Packet) { order = append(order, pkt.Payload.(int)) })
		for i := 0; i < 10; i++ {
			n.Send(0, n.NewPacket(0, 5, ClassCtrl, VNetRequest, i))
		}
		runNet(t, n, 5000)
		if len(order) != 10 {
			t.Fatalf("prio=%v delivered %d of 10", prio, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("prio=%v order violated: %v", prio, order)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	n := MustNetwork(testConfig(4, 4, false))
	for i := 0; i < 16; i++ {
		n.SetSink(i, func(now uint64, pkt *Packet) {})
	}
	n.Send(0, n.NewPacket(0, 5, ClassData, VNetResponse, nil))
	n.Send(0, n.NewPacket(1, 6, ClassLock, VNetRequest, nil))
	n.Send(0, n.NewPacket(2, 7, ClassCtrl, VNetForward, nil))
	runNet(t, n, 1000)
	if n.Injected() != 3 || n.Delivered() != 3 {
		t.Fatalf("injected=%d delivered=%d", n.Injected(), n.Delivered())
	}
	if n.Stats.DeliveredPkts[ClassLock] != 1 {
		t.Fatalf("lock class not counted: %+v", n.Stats.DeliveredPkts)
	}
	if n.Stats.NetLatency[ClassData].Count() != 1 {
		t.Fatal("data latency not observed")
	}
	if n.Stats.InjectedFlits != 8+1+1 {
		t.Fatalf("flits = %d", n.Stats.InjectedFlits)
	}
}

func TestManhattanHops(t *testing.T) {
	cfg := testConfig(8, 8, false)
	if got := cfg.ManhattanHops(0, 0); got != 1 {
		t.Fatalf("self hops = %d", got)
	}
	if got := cfg.ManhattanHops(0, 63); got != 15 {
		t.Fatalf("corner-to-corner hops = %d, want 15", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		cfg := testConfig(4, 4, true)
		n := MustNetwork(cfg)
		var sum uint64
		for i := 0; i < cfg.Nodes(); i++ {
			n.SetSink(i, func(now uint64, pkt *Packet) { sum += now * pkt.ID })
		}
		rng := sim.NewRNG(99)
		e := sim.NewEngine()
		e.Register(n)
		inj := &sim.FuncComponent{TickFn: func(now uint64) {
			if now < 500 && rng.Bool(0.5) {
				s, d := rng.Intn(16), rng.Intn(16)
				n.Send(now, n.NewPacket(s, d, ClassData, rng.Intn(NumVNets), nil))
			}
		}, NextWakeFn: func(now uint64) uint64 {
			if now < 500 {
				return now + 1
			}
			return sim.Never
		}}
		e.Register(inj)
		e.MaxCycles = 50000
		e.RunUntil(func() bool { return e.Now() > 500 && !n.Busy() })
		return sum, e.Now()
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", s1, c1, s2, c2)
	}
}

func TestYXRouting(t *testing.T) {
	cfg := testConfig(4, 4, false)
	cfg.Routing = RoutingYX
	n := MustNetwork(cfg)
	var got *Packet
	n.SetSink(15, func(now uint64, pkt *Packet) { got = pkt })
	n.Send(0, n.NewPacket(0, 15, ClassCtrl, VNetRequest, nil))
	runNet(t, n, 1000)
	if got == nil {
		t.Fatal("YX routing failed to deliver")
	}
	if got.Hops != cfg.ManhattanHops(0, 15) {
		t.Fatalf("YX hops = %d, want minimal %d", got.Hops, cfg.ManhattanHops(0, 15))
	}
	if RoutingXY.String() != "XY" || RoutingYX.String() != "YX" {
		t.Fatal("routing strings wrong")
	}
}

func TestYXAllPairs(t *testing.T) {
	cfg := testConfig(3, 3, true)
	cfg.Routing = RoutingYX
	n := MustNetwork(cfg)
	count := 0
	for i := 0; i < cfg.Nodes(); i++ {
		n.SetSink(i, func(now uint64, pkt *Packet) {
			if pkt.Dst != i {
				panic("misrouted")
			}
			count++
		})
	}
	sent := 0
	for s := 0; s < cfg.Nodes(); s++ {
		for d := 0; d < cfg.Nodes(); d++ {
			if s != d {
				n.Send(0, n.NewPacket(s, d, ClassCtrl, VNetRequest, nil))
				sent++
			}
		}
	}
	runNet(t, n, 10000)
	if count != sent {
		t.Fatalf("delivered %d of %d under YX", count, sent)
	}
}

// TestFreePacketDoubleFreePanics frees the same packet twice through the
// public FreePacket surface and asserts the exact slab diagnostic a user
// sees: the freed packet keeps its slab ref, so the second free trips the
// slab's double-free check instead of silently corrupting the freelist.
func TestFreePacketDoubleFreePanics(t *testing.T) {
	n, err := NewNetwork(testConfig(2, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	pkt := n.NewPacket(0, 1, ClassCtrl, VNetRequest, nil)
	n.FreePacket(pkt)
	defer func() {
		r := recover()
		want := "pool: double free of ref 1"
		if got, ok := r.(string); !ok || got != want {
			t.Fatalf("second FreePacket panicked with %v, want %q", r, want)
		}
	}()
	n.FreePacket(pkt)
	t.Fatal("second FreePacket did not panic")
}
