package sim

import "testing"

// pushComp is a minimal event-driven component: it records every tick and
// wakes itself at the cycles listed in wakes.
type pushComp struct {
	waker Waker
	next  uint64
	ticks []uint64
}

func (p *pushComp) SetWaker(w Waker) { p.waker = w }
func (p *pushComp) Tick(now uint64)  { p.ticks = append(p.ticks, now); p.next = Never }
func (p *pushComp) NextWake(now uint64) uint64 {
	if p.next <= now {
		return Never
	}
	return p.next
}

func TestWakeSetterTicksOnlyWhenDue(t *testing.T) {
	e := NewEngine()
	c := &pushComp{next: Never}
	e.Register(c)
	if c.waker == nil {
		t.Fatal("SetWaker not called at Register")
	}

	c.next = 5
	c.waker.Wake(5)
	e.RunUntil(func() bool { return e.Now() >= 10 })

	if len(c.ticks) != 1 || c.ticks[0] != 5 {
		t.Fatalf("ticks = %v, want [5]", c.ticks)
	}
	if e.TickedCycles != 1 {
		t.Fatalf("TickedCycles = %d, want 1", e.TickedCycles)
	}
	// Cycles 0-4 are jumped over, cycles 6-9 are idle advances; both count
	// as skipped.
	if e.SkippedCycles != 9 {
		t.Fatalf("SkippedCycles = %d, want 9", e.SkippedCycles)
	}
}

func TestWakeNeverDelays(t *testing.T) {
	e := NewEngine()
	c := &pushComp{next: Never}
	e.Register(c)
	c.next = 3
	c.waker.Wake(3)
	c.waker.Wake(8) // later wake must not override the earlier one
	e.RunUntil(func() bool { return e.Now() >= 5 })
	if len(c.ticks) != 1 || c.ticks[0] != 3 {
		t.Fatalf("ticks = %v, want [3]", c.ticks)
	}
}

func TestWakeDuringTickSameCycle(t *testing.T) {
	// A component waking a LATER-registered component for `now` must make it
	// tick this same cycle (matching the poll engine, which would have
	// reached it anyway); waking an EARLIER-registered component for `now`
	// must defer to now+1 (the poll engine had already passed it).
	e := NewEngine()
	early := &pushComp{next: Never}
	late := &pushComp{next: Never}
	e.Register(early)
	e.Register(&FuncComponent{TickFn: func(now uint64) {
		if now == 2 {
			early.next = now
			early.waker.Wake(now)
			late.next = now
			late.waker.Wake(now)
		}
	}, NextWakeFn: func(now uint64) uint64 {
		if now < 2 {
			return 2
		}
		return Never
	}})
	e.Register(late)

	e.RunUntil(func() bool { return e.Now() >= 6 })
	if len(late.ticks) == 0 || late.ticks[0] != 2 {
		t.Fatalf("late ticks = %v, want first at 2", late.ticks)
	}
	if len(early.ticks) == 0 || early.ticks[0] != 3 {
		t.Fatalf("early ticks = %v, want first at 3", early.ticks)
	}
}

// polled hides a component's optional engine interface (WakeSetter),
// leaving a legacy poll component.
type polled struct{ Component }

// TestPolledWrapperForcesPolling pins the engine's legacy-component path
// (plain Components such as FuncComponent): a component without
// WakeSetter gets no waker and ticks on every executed cycle.
func TestPolledWrapperForcesPolling(t *testing.T) {
	e := NewEngine()
	c := &pushComp{next: Never}
	e.Register(polled{c})
	if c.waker != nil {
		t.Fatal("polled component must not receive a waker")
	}
	// Another event-driven component keeps cycles 0..3 busy; the polled
	// component must tick on each of them even though it never wakes.
	d := &pushComp{next: 0}
	e.Register(d)
	d.next = 3
	e.RunUntil(func() bool { return e.Now() >= 4 })
	if len(c.ticks) == 0 {
		t.Fatal("polled component never ticked")
	}
}

func TestDelayQueueNotify(t *testing.T) {
	var got []uint64
	q := &DelayQueue{}
	q.SetNotify(func(at uint64) { got = append(got, at) })
	q.Schedule(7, func(uint64) {})
	q.Schedule(3, func(uint64) {})
	if len(got) != 2 || got[0] != 7 || got[1] != 3 {
		t.Fatalf("notify calls = %v, want [7 3]", got)
	}
}

func TestQuiescentEventDriven(t *testing.T) {
	e := NewEngine()
	c := &pushComp{next: Never}
	e.Register(c)
	if !e.Quiescent() {
		t.Fatal("idle engine not quiescent")
	}
	c.next = 4
	c.waker.Wake(4)
	if e.Quiescent() {
		t.Fatal("engine with pending wake reported quiescent")
	}
	e.RunUntil(func() bool { return e.Now() >= 5 })
	if !e.Quiescent() {
		t.Fatal("drained engine not quiescent")
	}
}
