package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/par"
)

// Never is the sentinel returned by NextWake when a component has no
// scheduled work.
const Never = math.MaxUint64

// Component is the unit of cycle-driven simulation. The engine calls Tick
// on a component for every cycle in which it has work to do (always in
// registration order among same-cycle components). NextWake lets the engine
// find the next busy cycle: when every component's next wake time lies in
// the future, the engine jumps the clock directly to the earliest one.
type Component interface {
	// Tick advances the component by one cycle. now is the current cycle.
	Tick(now uint64)
	// NextWake returns the earliest future cycle (> now) at which the
	// component has work to do, or Never when it is quiescent.
	NextWake(now uint64) uint64
}

// Waker is the engine-side half of wake notification. A component (or
// anything acting on its behalf) calls Wake when new work appears for a
// cycle possibly earlier than the component's last reported wake time.
// Wake never delays a component: it only moves the wake time earlier.
type Waker interface {
	Wake(at uint64)
}

// TickPoolUser is implemented by components that can exploit a worker
// pool for parallelism *within* one Tick call (e.g. the NoC's sharded
// tick executor). The engine itself stays strictly sequential — one
// component ticks at a time, in registration order — the pool only lets a
// single component fan its own cycle work out and join before returning.
// The engine calls SetTickPool when a pool is attached via
// Engine.SetTickPool (and on Register while one is attached); SetTickPool
// with nil detaches, and implementations must then fall back to their
// sequential path.
type TickPoolUser interface {
	SetTickPool(p *par.Pool)
}

// WakeSetter is implemented by components that push wake notifications to
// the engine instead of relying on per-cycle polling. The engine calls
// SetWaker once at Register time; the component must then call Wake
// whenever external input (a message send, a scheduled callback) gives it
// work the engine does not yet know about. Work a component creates for
// itself during its own Tick needs no notification — the engine re-reads
// NextWake after every tick.
//
// Components that do not implement WakeSetter are handled compatibly: the
// engine ticks them on every non-skipped cycle and re-polls their NextWake
// each time, exactly like the original poll-everything scheduler.
type WakeSetter interface {
	SetWaker(w Waker)
}

// Engine owns the simulation clock and the registered components. It is an
// event-driven scheduler: an indexed min-heap keyed by per-component wake
// time picks the next busy cycle in O(1), and Step ticks only the
// components whose wake time is due.
type Engine struct {
	now        uint64
	components []Component
	// wake[i] is the next cycle component i must tick (Never = idle).
	wake []uint64
	// legacy[i] marks components without push notification: they tick on
	// every executed cycle, like under the original poll scheduler.
	legacy []bool
	// anyLegacy caches whether legacy contains true.
	anyLegacy bool
	// heap is an indexed min-heap over (wake[i], i); pos[i] is component
	// i's slot in it. Every registered component is always present.
	heap []int
	pos  []int

	// ticking/tickPos identify the in-progress tick pass so Wake calls can
	// tell "not yet reached this cycle" from "already ticked this cycle".
	ticking bool
	tickPos int

	// MaxCycles aborts the run when the clock passes it (0 = unlimited).
	MaxCycles uint64
	stopped   bool
	// abort is the cross-goroutine stop request (RequestAbort): unlike
	// stopped it may be set from outside the simulation goroutine, e.g.
	// by a wall-clock watchdog timer.
	abort atomic.Bool
	// Stats. TickedCycles counts cycles in which at least one component
	// ticked; SkippedCycles counts cycles the clock jumped over because no
	// component was due. The two sum to the wall-clock cycle span of the
	// run (plus idle single-cycle advances, which count as skipped).
	TickedCycles  uint64
	SkippedCycles uint64

	// obs, when non-nil, receives engine wake-jump and step events.
	obs *obs.Recorder

	// tickPool, when non-nil, is handed to every TickPoolUser component
	// for intra-tick parallelism. The engine does not own it: the caller
	// that attached it closes it after detaching (SetTickPool(nil)).
	tickPool *par.Pool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{}
}

// handle binds a registered component index to its engine.
type handle struct {
	e   *Engine
	idx int
}

// Wake implements Waker.
func (h *handle) Wake(at uint64) { h.e.wakeIdx(h.idx, at) }

// Register adds c to the schedule. Components due on the same cycle tick
// in registration order, which the simulation relies on for determinism.
// Components implementing WakeSetter are event-driven; others are ticked
// every executed cycle (legacy poll behaviour).
func (e *Engine) Register(c Component) {
	idx := len(e.components)
	e.components = append(e.components, c)
	e.wake = append(e.wake, 0)
	e.pos = append(e.pos, -1)
	if ws, ok := c.(WakeSetter); ok {
		e.legacy = append(e.legacy, false)
		ws.SetWaker(&handle{e: e, idx: idx})
	} else {
		e.legacy = append(e.legacy, true)
		e.anyLegacy = true
	}
	if e.tickPool != nil {
		if u, ok := c.(TickPoolUser); ok {
			u.SetTickPool(e.tickPool)
		}
	}
	e.heapPush(idx, c.NextWake(e.now))
}

// SetTickPool attaches a worker pool for intra-tick parallelism (nil
// detaches), forwarding it to every registered — and every subsequently
// registered — TickPoolUser component. The engine never closes the pool;
// the attaching caller detaches and closes it when the run ends.
func (e *Engine) SetTickPool(p *par.Pool) {
	e.tickPool = p
	for _, c := range e.components {
		if u, ok := c.(TickPoolUser); ok {
			u.SetTickPool(p)
		}
	}
}

// wakeIdx moves component i's wake time earlier, to at (clamped so that a
// component never re-ticks within the cycle it already ticked).
func (e *Engine) wakeIdx(i int, at uint64) {
	floor := e.now
	if e.ticking && i <= e.tickPos {
		// Already ticked (or mid-tick) this cycle: earliest next chance is
		// the following cycle — matching the poll engine, where work pushed
		// into an already-ticked component ran on the next cycle.
		floor = e.now + 1
	}
	if at < floor {
		at = floor
	}
	if at < e.wake[i] {
		e.heapFix(i, at)
	}
}

// SetObserver attaches a structured-event recorder (nil detaches). Fast-
// forward jumps emit KindEngineWake; executed cycles emit KindEngineStep,
// which is disabled by default in the recorder because of its volume.
func (e *Engine) SetObserver(r *obs.Recorder) { e.obs = r }

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// SaveClock returns the clock state a checkpoint must preserve: the current
// cycle and the ticked/skipped counters. The wake heap needs no saving —
// RunUntil resyncs every component's NextWake on entry.
func (e *Engine) SaveClock() (now, ticked, skipped uint64) {
	return e.now, e.TickedCycles, e.SkippedCycles
}

// RestoreClock sets the clock state saved by SaveClock on a freshly built
// engine. Stale wake times are corrected by RunUntil's entry resync.
func (e *Engine) RestoreClock(now, ticked, skipped uint64) {
	e.now = now
	e.TickedCycles = ticked
	e.SkippedCycles = skipped
}

// SaveWakes returns every registered component's pending wake time in
// registration order. A checkpoint must carry these alongside the clock:
// the engine stops between cycles, so a component can be due exactly at
// the snapshot cycle — state NextWake cannot re-derive on a fresh engine
// (its answers are strictly future), and without which the first resumed
// cycle would tick one cycle late.
func (e *Engine) SaveWakes() []uint64 {
	return append([]uint64(nil), e.wake...)
}

// RestoreWakes installs wake times saved by SaveWakes onto a freshly
// built engine with the identical component registration sequence.
func (e *Engine) RestoreWakes(w []uint64) error {
	if len(w) != len(e.wake) {
		return fmt.Errorf("sim: snapshot has %d component wake times, engine has %d components", len(w), len(e.wake))
	}
	for i, v := range w {
		e.heapFix(i, v)
	}
	return nil
}

// Stop makes RunUntil return after the current cycle completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// RequestAbort asks the engine to stop at the next cycle boundary. Safe
// to call from any goroutine (e.g. a wall-clock timeout watching a run),
// unlike Stop, which may only be called from the simulation goroutine.
func (e *Engine) RequestAbort() { e.abort.Store(true) }

// Aborted reports whether RequestAbort has been called.
func (e *Engine) Aborted() bool { return e.abort.Load() }

// Step executes exactly one cycle: every due component (plus every legacy
// poll component) ticks in registration order, then reports its next wake
// time.
func (e *Engine) Step() {
	if e.obs != nil {
		e.obs.EngineStep(e.now)
	}
	e.ticking = true
	ticked := false
	for i := range e.components {
		if !e.legacy[i] && e.wake[i] > e.now {
			continue
		}
		e.tickPos = i
		c := e.components[i]
		c.Tick(e.now)
		w := c.NextWake(e.now)
		if w <= e.now {
			// Defensive clamp: NextWake must be in the future; treating a
			// stale "now" as "next cycle" keeps the engine moving.
			w = e.now + 1
		}
		e.heapFix(i, w)
		ticked = true
	}
	e.ticking = false
	if ticked {
		e.TickedCycles++
	}
	e.now++
}

// RunUntil advances the simulation until done() reports true, Stop is
// called, or MaxCycles is exceeded. It returns the cycle at which it
// stopped. done is evaluated between cycles.
func (e *Engine) RunUntil(done func() bool) uint64 {
	e.resync()
	for !e.stopped && !done() {
		if e.MaxCycles != 0 && e.now >= e.MaxCycles {
			break
		}
		if e.abort.Load() {
			break
		}
		m := e.earliestWake()
		if m > e.now && e.anyLegacy {
			// A legacy component's stored wake time goes stale the moment a
			// later-ticking component hands it work (nothing notifies the
			// engine). Re-poll before trusting a jump, like the poll
			// engine's per-cycle minimum scan did.
			for i, c := range e.components {
				if e.legacy[i] {
					e.heapFix(i, c.NextWake(e.now))
				}
			}
			m = e.earliestWake()
			if m == e.now+1 {
				// NextWake's contract is "strictly future", so a legacy
				// component with work in the CURRENT cycle (e.g. a busy
				// network that re-polls itself every cycle) can only answer
				// now+1. The poll engine compensated by skipping only past
				// now+1; execute this cycle likewise.
				m = e.now
			}
		}
		if m > e.now {
			if m != Never {
				// Jump the clock to the next busy cycle; done is re-checked
				// before it executes, mirroring the poll engine, which
				// skipped after each executed cycle.
				if e.obs != nil {
					e.obs.EngineWake(m, m-e.now)
				}
				e.SkippedCycles += m - e.now
				e.now = m
				continue
			}
			if !e.anyLegacy {
				// Everything is quiescent: nothing will ever happen again
				// on its own. Advance one cycle at a time so the done
				// predicate (which may watch the clock) still terminates
				// the run.
				e.now++
				e.SkippedCycles++
				continue
			}
			// Legacy poll components may have stale wake times; fall through
			// and keep ticking them, like the poll engine did.
		}
		e.Step()
	}
	return e.now
}

// Run advances the simulation for n further cycles (honouring fast-forward,
// so fewer than n Tick rounds may execute, and a clock jump may overshoot).
func (e *Engine) Run(n uint64) {
	target := e.now + n
	e.RunUntil(func() bool { return e.now >= target })
}

// resync re-reads every component's NextWake. RunUntil calls it once on
// entry so state changed outside the engine (between runs, or before the
// first run) is picked up even without a Wake notification. A fresh
// answer only ever moves a wake time EARLIER: NextWake's contract is
// strictly-future, so a component whose stored wake time is due exactly
// now (the engine stopped between cycles, right before ticking it) would
// answer now+1 and miss its cycle — an interrupted-and-resumed run would
// drift one cycle from an uninterrupted one. Keeping the earlier stored
// time at worst ticks a component that turns out to be idle, which the
// poll-engine equivalence guarantees is harmless.
func (e *Engine) resync() {
	for i, c := range e.components {
		if w := c.NextWake(e.now); w < e.wake[i] {
			e.heapFix(i, w)
		}
	}
}

// earliestWake returns the minimum wake time across all components, in
// O(1) via the heap root, or Never when no components are registered.
func (e *Engine) earliestWake() uint64 {
	if len(e.heap) == 0 {
		return Never
	}
	return e.wake[e.heap[0]]
}

// Quiescent reports whether every component is idle forever. Event-driven
// components are answered from the heap minimum in O(1); legacy poll
// components are re-polled, since their wake times may be stale.
func (e *Engine) Quiescent() bool {
	if e.anyLegacy {
		for i, c := range e.components {
			if !e.legacy[i] {
				continue
			}
			w := c.NextWake(e.now)
			e.heapFix(i, w)
			if w != Never {
				return false
			}
		}
	}
	return e.earliestWake() == Never
}

// ---------------------------------------------------------------- heap --

// heapLess orders heap slots by (wake time, registration index) so that
// same-cycle pops are deterministic.
func (e *Engine) heapLess(a, b int) bool {
	ia, ib := e.heap[a], e.heap[b]
	if e.wake[ia] != e.wake[ib] {
		return e.wake[ia] < e.wake[ib]
	}
	return ia < ib
}

func (e *Engine) heapSwap(a, b int) {
	e.heap[a], e.heap[b] = e.heap[b], e.heap[a]
	e.pos[e.heap[a]] = a
	e.pos[e.heap[b]] = b
}

func (e *Engine) heapPush(idx int, w uint64) {
	e.wake[idx] = w
	e.heap = append(e.heap, idx)
	e.pos[idx] = len(e.heap) - 1
	e.siftUp(len(e.heap) - 1)
}

// heapFix sets component idx's wake time and restores heap order.
func (e *Engine) heapFix(idx int, w uint64) {
	if e.wake[idx] == w {
		return
	}
	up := w < e.wake[idx]
	e.wake[idx] = w
	if up {
		e.siftUp(e.pos[idx])
	} else {
		e.siftDown(e.pos[idx])
	}
}

func (e *Engine) siftUp(s int) {
	for s > 0 {
		parent := (s - 1) / 2
		if !e.heapLess(s, parent) {
			return
		}
		e.heapSwap(s, parent)
		s = parent
	}
}

func (e *Engine) siftDown(s int) {
	n := len(e.heap)
	for {
		l, r := 2*s+1, 2*s+2
		min := s
		if l < n && e.heapLess(l, min) {
			min = l
		}
		if r < n && e.heapLess(r, min) {
			min = r
		}
		if min == s {
			return
		}
		e.heapSwap(s, min)
		s = min
	}
}

// FuncComponent adapts plain functions to the Component interface. It does
// not implement WakeSetter, so the engine treats it as a legacy poll
// component: ticked every executed cycle, NextWake re-polled each time.
type FuncComponent struct {
	TickFn     func(now uint64)
	NextWakeFn func(now uint64) uint64
}

// Tick implements Component.
func (f *FuncComponent) Tick(now uint64) {
	if f.TickFn != nil {
		f.TickFn(now)
	}
}

// NextWake implements Component.
func (f *FuncComponent) NextWake(now uint64) uint64 {
	if f.NextWakeFn == nil {
		return Never
	}
	return f.NextWakeFn(now)
}
