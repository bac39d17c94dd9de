package noc

import "repro/internal/sim"

// busyTicked is the fast-forward oracle: it embeds the network and
// answers NextWake with now+1 whenever the network is busy, so an engine
// ticks it on every cycle that holds in-flight work instead of jumping to
// NextEventCycle. Tick and SetWaker are promoted, so it registers
// exactly like the bare network.
type busyTicked struct{ *Network }

// NextWake implements sim.Component.
func (b busyTicked) NextWake(now uint64) uint64 {
	if !b.Busy() {
		return sim.Never
	}
	return now + 1
}

// engineView returns what an engine registers for n: the network itself,
// or with tickEveryBusyCycle its busyTicked oracle.
func engineView(n *Network, tickEveryBusyCycle bool) sim.Component {
	if tickEveryBusyCycle {
		return busyTicked{n}
	}
	return n
}
