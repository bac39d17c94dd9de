package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds suspiciously correlated: %d/100", same)
	}
}

func TestRNGFork(t *testing.T) {
	parent := NewRNG(7)
	k1 := parent.Fork(1)
	parent2 := NewRNG(7)
	k1b := parent2.Fork(1)
	for i := 0; i < 100; i++ {
		if k1.Uint64() != k1b.Uint64() {
			t.Fatal("fork not deterministic")
		}
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Range(3, 9); v < 3 || v > 9 {
			t.Fatalf("Range out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		if j := r.Jitter(100, 0.4); j < 60 || j > 140 {
			t.Fatalf("Jitter out of range: %d", j)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("Jitter(0) changed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGGeometric(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Geometric(10)
		if v < 1 {
			t.Fatalf("geometric sample %d < 1", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if mean < 8 || mean > 12 {
		t.Fatalf("geometric mean %.2f far from 10", mean)
	}
	if r.Geometric(0.5) != 1 {
		t.Fatal("mean<=1 must return 1")
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) frequency %.3f", frac)
	}
}

// tickCounter counts ticks and sleeps until a fixed wake time.
type tickCounter struct {
	ticks int
	wake  uint64
}

func (c *tickCounter) Tick(now uint64) { c.ticks++ }
func (c *tickCounter) NextWake(now uint64) uint64 {
	if c.wake > now {
		return c.wake
	}
	return Never
}

// everyCycle counts ticks and is due on every cycle.
type everyCycle struct{ ticks int }

func (c *everyCycle) Tick(now uint64)            { c.ticks++ }
func (c *everyCycle) NextWake(now uint64) uint64 { return now + 1 }

func TestEngineStepAndRun(t *testing.T) {
	e := NewEngine()
	c := &everyCycle{}
	e.Register(c)
	e.Run(10)
	if c.ticks != 10 || e.Now() != 10 {
		t.Fatalf("ticks=%d now=%d", c.ticks, e.Now())
	}
}

func TestEngineFastForward(t *testing.T) {
	e := NewEngine()
	c := &tickCounter{wake: 1000}
	e.Register(c)
	e.RunUntil(func() bool { return e.Now() >= 1000 })
	if e.Now() < 1000 {
		t.Fatalf("did not reach 1000: %d", e.Now())
	}
	if c.ticks > 10 {
		t.Fatalf("fast-forward did not skip: %d ticks", c.ticks)
	}
	if e.SkippedCycles == 0 {
		t.Fatal("no cycles recorded as skipped")
	}
}

func TestEngineMaxCycles(t *testing.T) {
	e := NewEngine()
	e.Register(&everyCycle{})
	e.MaxCycles = 50
	e.RunUntil(func() bool { return false })
	if e.Now() != 50 {
		t.Fatalf("MaxCycles guard failed: %d", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Register(&FuncComponent{TickFn: func(now uint64) {
		n++
		if n == 5 {
			e.Stop()
		}
	}})
	e.RunUntil(func() bool { return false })
	if !e.Stopped() || n != 5 {
		t.Fatalf("stop failed: n=%d", n)
	}
}

func TestEngineQuiescent(t *testing.T) {
	e := NewEngine()
	e.Register(&FuncComponent{})
	if !e.Quiescent() {
		t.Fatal("empty FuncComponent should be quiescent")
	}
	e.Register(&tickCounter{wake: 100})
	if e.Quiescent() {
		t.Fatal("component with future wake is not quiescent")
	}
}

func TestDelayQueueProperty(t *testing.T) {
	// Property: RunDue executes actions in (time, insertion) order.
	f := func(times []uint16) bool {
		var q DelayQueue
		type ev struct {
			at  uint64
			seq int
		}
		var fired []ev
		for i, tt := range times {
			at := uint64(tt)
			i := i
			q.Schedule(at, func(now uint64) { fired = append(fired, ev{at, i}) })
		}
		q.RunDue(1 << 20)
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1].at > fired[i].at {
				return false
			}
			if fired[i-1].at == fired[i].at && fired[i-1].seq > fired[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayQueueReentrant(t *testing.T) {
	// Actions scheduling follow-up actions at the same cycle run in the
	// same RunDue call.
	var q DelayQueue
	var order []int
	q.Schedule(5, func(now uint64) {
		order = append(order, 1)
		q.Schedule(now, func(uint64) { order = append(order, 2) })
	})
	q.RunDue(5)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("reentrant scheduling failed: %v", order)
	}
}
