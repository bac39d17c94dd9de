package repro

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// The engine oracles. The polling oracle: the event-driven engine must
// produce the same simulation as an engine that ticks every component on
// every executed cycle. The fast-forward oracle: the network's exact
// NextEventCycle wake must produce the same simulation as ticking the
// network on every cycle it holds in-flight work. Both swap a built (or
// restored) system's engine for one that registers wrapped components,
// the way bench/trace.go's instrument swaps in timed wrappers.

// polledComponent exposes only Tick and NextWake, so the engine polls it.
type polledComponent struct{ sim.Component }

// nopWaker detaches a component's wake notifications from the engine it
// was built with.
type nopWaker struct{}

func (nopWaker) Wake(uint64) {}

// busyTickedNet answers NextWake with now+1 whenever the network is busy,
// so the engine ticks it every busy cycle instead of jumping to
// NextEventCycle. Tick, SetWaker and SetTickPool are promoted, so it
// registers and takes a tick pool exactly like the bare network.
type busyTickedNet struct{ *noc.Network }

// NextWake implements sim.Component.
func (b busyTickedNet) NextWake(now uint64) uint64 {
	if !b.Busy() {
		return sim.Never
	}
	return now + 1
}

// swapEngine replaces sys's engine with a fresh one registering wrap(c)
// for each platform component in New's order, carrying the clock and
// every pending wake time across, so it works on a fresh platform and on
// one restored mid-run. A watchdog is rebuilt against the new engine (it
// is not part of a checkpoint either) and registered last, as New does.
func swapEngine(t testing.TB, sys *System, wrap func(sim.Component) sim.Component) {
	t.Helper()
	old := sys.Engine
	eng := sim.NewEngine()
	eng.MaxCycles = old.MaxCycles
	for _, c := range []sim.Component{sys.Net, sys.Mem, sys.Kernel, sys.CPU} {
		eng.Register(wrap(c))
	}
	sys.Engine = eng
	if sys.Watchdog != nil {
		sys.Watchdog = sys.buildWatchdog(sys.Watchdog.Config())
		eng.Register(sys.Watchdog)
	}
	eng.RestoreClock(old.SaveClock())
	if err := eng.RestoreWakes(old.SaveWakes()); err != nil {
		t.Fatal(err)
	}
	eng.SetObserver(sys.Cfg.Obs)
}

// pollEngine swaps in the polling oracle: every component polled, its
// wake notifications and tick pool hidden from the engine.
func pollEngine(t testing.TB, sys *System) {
	t.Helper()
	swapEngine(t, sys, func(c sim.Component) sim.Component {
		c.(sim.WakeSetter).SetWaker(nopWaker{})
		return polledComponent{c}
	})
}

// busyTickEngine swaps in the fast-forward oracle: only the network is
// wrapped, every other component stays event-driven.
func busyTickEngine(t testing.TB, sys *System) {
	t.Helper()
	swapEngine(t, sys, func(c sim.Component) sim.Component {
		if n, ok := c.(*noc.Network); ok {
			return busyTickedNet{n}
		}
		return c
	})
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
