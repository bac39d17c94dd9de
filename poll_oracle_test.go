package repro

import (
	"testing"

	"repro/internal/sim"
)

// The polling oracle: the event-driven engine must produce the same
// simulation as an engine that ticks every component on every executed
// cycle. The oracle swaps a built (or restored) system's engine for one
// that registers the same components behind a wrapper hiding their
// WakeSetter and TickPoolUser implementations — the engine's legacy poll
// path — the way bench/trace.go's instrument swaps in timed wrappers.

// polledComponent exposes only Tick and NextWake, so the engine polls it.
type polledComponent struct{ sim.Component }

// nopWaker detaches a component's wake notifications from the engine it
// was built with.
type nopWaker struct{}

func (nopWaker) Wake(uint64) {}

// pollEngine replaces sys's engine with a polling one, carrying the clock
// and every pending wake time across, so it works on a fresh platform and
// on one restored mid-run. Systems with a watchdog are not supported: its
// abort hook is bound to the original engine.
func pollEngine(t testing.TB, sys *System) {
	t.Helper()
	if sys.Watchdog != nil {
		t.Fatal("pollEngine: watchdog systems are not supported")
	}
	old := sys.Engine
	eng := sim.NewEngine()
	eng.MaxCycles = old.MaxCycles
	for _, c := range []sim.Component{sys.Net, sys.Mem, sys.Kernel, sys.CPU} {
		c.(sim.WakeSetter).SetWaker(nopWaker{})
		eng.Register(polledComponent{c})
	}
	eng.RestoreClock(old.SaveClock())
	if err := eng.RestoreWakes(old.SaveWakes()); err != nil {
		t.Fatal(err)
	}
	eng.SetObserver(sys.Cfg.Obs)
	sys.Engine = eng
}

// newSystem builds cfg, on the polling oracle engine when poll is set.
func newSystem(t testing.TB, cfg Config, poll bool) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if poll {
		pollEngine(t, sys)
	}
	return sys
}
