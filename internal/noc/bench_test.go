package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkUniformTraffic measures simulation throughput of the mesh under
// uniform random data traffic (flit-cycles per second of wall clock).
func BenchmarkUniformTraffic(b *testing.B) {
	for _, prio := range []bool{false, true} {
		name := "roundrobin"
		if prio {
			name = "priority"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := testConfig(8, 8, prio)
				n := MustNetwork(cfg)
				for j := 0; j < cfg.Nodes(); j++ {
					n.SetSink(j, func(now uint64, pkt *Packet) {})
				}
				rng := sim.NewRNG(uint64(i + 1))
				e := sim.NewEngine()
				e.Register(n)
				e.Register(&sim.FuncComponent{
					TickFn: func(now uint64) {
						if now >= 2000 {
							return
						}
						for s := 0; s < cfg.Nodes(); s++ {
							if rng.Bool(0.05) {
								d := rng.Intn(cfg.Nodes())
								if d != s {
									n.Send(now, n.NewPacket(s, d, ClassData, rng.Intn(NumVNets), nil))
								}
							}
						}
					},
					NextWakeFn: func(now uint64) uint64 {
						if now < 2000 {
							return now + 1
						}
						return sim.Never
					},
				})
				e.MaxCycles = 1 << 20
				e.RunUntil(func() bool { return e.Now() > 2000 && !n.Busy() })
				if n.Busy() {
					b.Fatal("network did not drain")
				}
			}
		})
	}
}

// BenchmarkNetworkTick measures the per-cycle cost of the hot tick loop on
// a saturated mesh. The network is pre-loaded with self-refreshing
// all-to-random traffic so every measured cycle carries real
// allocation/traversal work; the bench-smoke gates hold the 8x8 variant to
// zero allocations per tick and under a committed ns/op ceiling. Each run
// also reports the mean router-buffered flits per measured cycle.
func BenchmarkNetworkTick(b *testing.B) {
	for _, mesh := range []int{8, 16, 24, 32, 64} {
		b.Run(fmt.Sprintf("mesh=%dx%d", mesh, mesh), func(b *testing.B) {
			cfg := testConfig(mesh, mesh, true)
			n := MustNetwork(cfg)
			rng := sim.NewRNG(42)
			resend := func(now uint64, pkt *Packet) {
				// Keep the load constant: every delivery immediately
				// re-injects a packet from a rotating source.
				src := pkt.Dst
				dst := rng.Intn(cfg.Nodes())
				if dst == src {
					dst = (src + 1) % cfg.Nodes()
				}
				n.Send(now, n.NewPacket(src, dst, ClassData, rng.Intn(NumVNets), nil))
				n.FreePacket(pkt)
			}
			for j := 0; j < cfg.Nodes(); j++ {
				n.SetSink(j, resend)
			}
			// Load the mesh and tick to a busy steady state before the
			// timer starts.
			for s := 0; s < cfg.Nodes(); s++ {
				for k := 0; k < 4; k++ {
					d := rng.Intn(cfg.Nodes())
					if d != s {
						n.Send(0, n.NewPacket(s, d, ClassData, rng.Intn(NumVNets), nil))
					}
				}
			}
			var now uint64
			for ; now < 500; now++ {
				n.Tick(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var flits int
			for i := 0; i < b.N; i++ {
				flits += n.routerFlits
				n.Tick(now)
				now++
			}
			b.ReportMetric(float64(flits)/float64(b.N), "flits/cycle")
		})
	}
}

// sparseRelease is one pending packet release of the sparse-traffic
// generator: flow src->dst fires at cycle at.
type sparseRelease struct {
	at       uint64
	src, dst int
}

// sparseGen drives the low-utilization workload: a fixed set of ping-pong
// flows where every delivery schedules the reverse packet thinkTime cycles
// later, modelling the lock-dominated phases of the source paper (a
// handful of control messages crossing an otherwise idle mesh). It is an
// event-driven component — NextWake reports the next release exactly — so
// the engine can fast-forward across both the link-flight gaps and the
// think-time windows instead of ticking thousands of idle routers.
//
// The release ring is FIFO and relies on all pushes sharing one constant
// think time: deliveries happen in cycle order, so release times arrive
// nondecreasing and the head is always the earliest entry.
type sparseGen struct {
	net        *Network
	waker      sim.Waker
	ring       []sparseRelease
	head, tail int
}

func (g *sparseGen) push(at uint64, src, dst int) {
	g.ring[g.tail] = sparseRelease{at: at, src: src, dst: dst}
	g.tail = (g.tail + 1) % len(g.ring)
	if g.waker != nil {
		g.waker.Wake(at)
	}
}

// Tick implements sim.Component.
func (g *sparseGen) Tick(now uint64) {
	for g.head != g.tail && g.ring[g.head].at <= now {
		ev := g.ring[g.head]
		g.head = (g.head + 1) % len(g.ring)
		g.net.Send(now, g.net.NewPacket(ev.src, ev.dst, ClassCtrl, VNetRequest, nil))
	}
}

// NextWake implements sim.Component.
func (g *sparseGen) NextWake(now uint64) uint64 {
	if g.head == g.tail {
		return sim.Never
	}
	if at := g.ring[g.head].at; at > now {
		return at
	}
	return now + 1
}

// SetWaker implements sim.WakeSetter.
func (g *sparseGen) SetWaker(w sim.Waker) { g.waker = w }

// sparseFixture builds the sparse-traffic fixture on a mesh x mesh mesh:
// flows single-flit ping-pong pairs crossing three quarters of the mesh
// in each dimension (the cross-mesh distances lock and directory traffic
// actually covers on a giant mesh — the uniform-random mean is already
// 2/3 of the width per axis) on a LinkLatency-8 mesh, with think cycles
// between a delivery and the reverse send. It returns the engine, with
// the network registered behind engineView(n, noFF), and the delivery
// count.
func sparseFixture(mesh int, noFF bool) (*sim.Engine, *int) {
	const (
		flows = 1
		think = 200
	)
	cfg := testConfig(mesh, mesh, true)
	cfg.LinkLatency = 8
	n := MustNetwork(cfg)
	delivered := new(int)
	g := &sparseGen{net: n, ring: make([]sparseRelease, flows+1)}
	resend := func(now uint64, pkt *Packet) {
		*delivered++
		src, dst := pkt.Dst, pkt.Src
		n.FreePacket(pkt)
		g.push(now+think, src, dst)
	}
	for j := 0; j < cfg.Nodes(); j++ {
		n.SetSink(j, resend)
	}
	e := sim.NewEngine()
	e.Register(engineView(n, noFF))
	e.Register(g)
	rng := sim.NewRNG(42)
	span := 3 * mesh / 4
	for k := 0; k < flows; k++ {
		// Stagger the flows so their flight windows interleave instead of
		// marching in lockstep — the sparse regime is a few isolated control
		// packets crossing the mesh at any instant, not a synchronized burst.
		x, y := rng.Intn(mesh-span), rng.Intn(mesh-span)
		g.push(uint64(k*(think/flows)), cfg.Node(x, y), cfg.Node(x+span, y+span))
	}
	e.MaxCycles = 1 << 62
	return e, delivered
}

// runSparseTick times the sparse fixture: one "op" of the benchmark
// advances the run by eight deliveries.
func runSparseTick(b *testing.B, mesh int, noFF bool) {
	e, delivered := sparseFixture(mesh, noFF)
	e.RunUntil(func() bool { return *delivered >= 40 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := *delivered + 8
		e.RunUntil(func() bool { return *delivered >= target })
	}
}

// BenchmarkNetworkTickSparse measures the low-utilization regime the
// O(active) work targets: a handful of in-flight control packets — and
// long think-time gaps with nothing in flight at all — on meshes up to
// 64x64. Per-op cost should be near-flat in mesh size (the hierarchical
// active sets touch only live state) and far below the dense
// BenchmarkNetworkTick (idle-window fast-forward skips the cycles where
// nothing is due). The noff variant runs the busyTicked oracle, the
// tick-every-busy-cycle discipline fast-forward replaced, so the cost of
// losing fast-forward stays measurable.
func BenchmarkNetworkTickSparse(b *testing.B) {
	for _, mesh := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("mesh=%dx%d", mesh, mesh), func(b *testing.B) {
			runSparseTick(b, mesh, false)
		})
	}
	for _, mesh := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("noff/mesh=%dx%d", mesh, mesh), func(b *testing.B) {
			runSparseTick(b, mesh, true)
		})
	}
}

// BenchmarkSingleFlitLatency measures the uncontended end-to-end cost of a
// corner-to-corner control packet.
func BenchmarkSingleFlitLatency(b *testing.B) {
	cfg := testConfig(8, 8, false)
	n := MustNetwork(cfg)
	done := false
	n.SetSink(63, func(now uint64, pkt *Packet) { done = true })
	e := sim.NewEngine()
	e.Register(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		n.Send(e.Now(), n.NewPacket(0, 63, ClassCtrl, VNetRequest, nil))
		e.MaxCycles = e.Now() + 10000
		e.RunUntil(func() bool { return done })
		if !done {
			b.Fatal("not delivered")
		}
	}
}
