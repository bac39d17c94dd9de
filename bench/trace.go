package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/sim"
)

// The traced run measures each layer from the outside: it wraps the calls
// the benchmark (or the engine it installs) makes into the layer, and never
// changes code outside this directory. Per-tick timings go into plain
// accumulators; only cell-level spans are kept, since a span per tick
// would mean millions of spans.

// compTimes accumulates the host time one engine component spends in Tick
// and NextWake.
type compTimes struct {
	tick, wake time.Duration
	ticks      uint64
}

// cellTrace is one traced cell's accumulators. comp follows the engine's
// registration order in platform.New: network, memory, kernel, cores.
// deliver and deliveries split the network's sink callbacks into memory
// (0) and kernel (1) message handling.
type cellTrace struct {
	comp       [4]compTimes
	deliver    [2]time.Duration
	deliveries [2]uint64
}

// timedComponent times an engine component. It forwards the optional
// engine interfaces, so the engine schedules it exactly like the component
// it wraps.
type timedComponent struct {
	c sim.Component
	t *compTimes
}

func (tc *timedComponent) Tick(now uint64) {
	t0 := time.Now()
	tc.c.Tick(now)
	tc.t.tick += time.Since(t0)
	tc.t.ticks++
}

func (tc *timedComponent) NextWake(now uint64) uint64 {
	t0 := time.Now()
	w := tc.c.NextWake(now)
	tc.t.wake += time.Since(t0)
	return w
}

func (tc *timedComponent) SetWaker(w sim.Waker) { tc.c.(sim.WakeSetter).SetWaker(w) }

func (tc *timedComponent) SetTickPool(p *par.Pool) {
	if u, ok := tc.c.(sim.TickPoolUser); ok {
		u.SetTickPool(p)
	}
}

// instrument swaps a freshly built system's engine for one that registers
// timed wrappers of the same components in platform.New's order, and
// re-installs every node's delivery sink with platform.New's demultiplexer
// timed around the memory and kernel handlers. The simulation is
// unchanged: the tests check that traced and untraced results are
// byte-identical.
func instrument(sys *repro.System) *cellTrace {
	ct := &cellTrace{}
	eng := sim.NewEngine()
	eng.MaxCycles = sys.Engine.MaxCycles
	for i, c := range []sim.Component{sys.Net, sys.Mem, sys.Kernel, sys.CPU} {
		eng.Register(&timedComponent{c: c, t: &ct.comp[i]})
	}
	sys.Engine = eng
	net, msys, ksys := sys.Net, sys.Mem, sys.Kernel
	for node := 0; node < net.Cfg.Nodes(); node++ {
		net.SetSink(node, func(now uint64, pkt *noc.Packet) {
			t0 := time.Now()
			k := 0
			switch pkt.PayloadKind {
			case noc.PayloadMem:
				msys.Deliver(now, node, msys.MsgAt(pkt.PayloadRef))
			case noc.PayloadKernel:
				k = 1
				ksys.Deliver(now, node, ksys.MsgAt(pkt.PayloadRef))
			default:
				// Boxed payloads exist only in NoPool runs, which the
				// benchmark never configures.
				panic(fmt.Sprintf("bench: node %d: unexpected payload kind %d", node, pkt.PayloadKind))
			}
			ct.deliver[k] += time.Since(t0)
			ct.deliveries[k]++
			net.FreePacket(pkt)
		})
	}
	return ct
}

// cacheStats accumulates the prefix cache's host time and traffic.
type cacheStats struct {
	load, store   time.Duration
	loads, stores uint64
}

// timedCache wraps the fleet's prefix cache, timing every Load and Store.
type timedCache struct {
	inner experiments.PrefixCache
	tr    *tracer
	mu    sync.Mutex
	st    cacheStats
}

func (c *timedCache) Load(key string) (any, uint64, bool) {
	t0 := time.Now()
	p, cycle, ok := c.inner.Load(key)
	t1 := time.Now()
	c.mu.Lock()
	c.st.load += t1.Sub(t0)
	c.st.loads++
	c.mu.Unlock()
	c.tr.span("checkpoint.load", tidFleetWorker, t0, t1, nil)
	return p, cycle, ok
}

func (c *timedCache) Store(key string, prefix any, cycle uint64) {
	t0 := time.Now()
	c.inner.Store(key, prefix, cycle)
	t1 := time.Now()
	c.mu.Lock()
	c.st.store += t1.Sub(t0)
	c.st.stores++
	c.mu.Unlock()
	c.tr.span("checkpoint.store", tidFleetWorker, t0, t1, nil)
}

func (c *timedCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Span threads: the measuring goroutine, and the fleet worker that runs
// fleet-sweep's cells.
const (
	tidMain        = 1
	tidFleetWorker = 2
)

// span is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing open a file of them.
type span struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) span(name string, tid int, from, to time.Time, args map[string]any) {
	if t == nil {
		return
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Ph: "X", Ts: us(from.Sub(t.start)), Dur: us(to.Sub(from)),
		Pid: 1, Tid: tid, Args: args,
	})
	t.mu.Unlock()
}

// write saves the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": t.spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
