package noc

// Fault-injection wiring and the conservation invariants the simulation
// watchdog checks. Everything here is inert until SetFaults attaches an
// injector (the zero-cost nil-check pattern of SetObserver), and the
// check functions are pure reads usable from the watchdog or tests at
// any inter-tick instant.

import (
	"fmt"

	"repro/internal/fault"
)

// SetFaults attaches a fault injector to the network (nil detaches):
// every flit send asks it for the flit's fate, every router gets the
// freeze hook, and the network itself gets the priority-corruption hook.
// If the plan left ClassMask zero, flit faults are restricted to the
// locking-protocol classes (lock + wakeup): coherence control traffic has
// no retry path, so losing it is not a recoverable fault but a broken
// machine. Attach before the run: the FIFO clamp of a delayed flit's link
// starts from the flits in flight when the injector is attached.
func (n *Network) SetFaults(inj *fault.Injector) {
	n.faults = inj
	n.lastDue = nil
	flight := n.Cfg.LinkLatency
	if inj != nil {
		inj.DefaultClassMask(1<<uint(ClassLock) | 1<<uint(ClassWakeup))
		flight += int(inj.DelayCycles())
		n.resetLastDue()
	}
	n.resizeWheel(flight)
	for _, r := range n.Routers {
		r.faults = inj
	}
}

// resetLastDue rebuilds the FIFO clamp's per-link due cycles from the
// flits in the wheel: a link's last due cycle is its latest flit's, and a
// link with no flit in flight needs no clamp.
func (n *Network) resetLastDue() {
	n.lastDue = make([]uint64, n.Cfg.Nodes()*(int(NumDirs)+1))
	each(&n.wheel, n.wheel.flits, func(due uint64, ev flitEvent) { n.clampDue(due, &ev, false) })
	each(&n.wheel, n.wheel.ejects, func(due uint64, ev flitEvent) { n.clampDue(due, &ev, true) })
}

// resizeWheel gives the wheel the span a link flight of flight cycles
// needs, moving any events in flight into the new slots. A wheel holding
// events never shrinks: they may be due further out than the new span.
func (n *Network) resizeWheel(flight int) {
	w := newWheel(flight)
	old := &n.wheel
	if w.span() == old.span() || w.span() < old.span() && old.nflits+old.ncredits+old.nejects > 0 {
		return
	}
	w.base = old.base
	each(old, old.flits, w.pushFlit)
	each(old, old.credits, w.pushCredit)
	each(old, old.ejects, w.pushEject)
	n.wheel = w
}

// Faults returns the attached injector (nil when faults are off).
func (n *Network) Faults() *fault.Injector { return n.faults }

// LinkID is the fault-injection identity of router node's outgoing link
// in direction d (Local = the ejection link toward the node's NI). Every
// link has exactly one flit sender, so enumerating links by sender
// covers each one exactly once.
func LinkID(node int, d Dir) int32 { return int32(node*int(NumDirs) + int(d)) }

// NILinkID is the fault-injection identity of NI node's injection link
// (NI toward router).
func (n *Network) NILinkID(node int) int32 {
	return int32(n.Cfg.Nodes()*int(NumDirs) + node)
}

// Census is a point-in-time packet census. Exactly one term accounts for
// each injected packet — identified by where its tail flit sits — so
//
//	Injected == Delivered + Queued + LinkTails + BufferedTails +
//	            Loopback + Dropped
//
// holds at any inter-tick instant. (A dropped packet's tail is counted
// by Dropped from the moment the fate is sealed at send time; the
// in-flight event it still occupies is drop-marked and excluded from
// LinkTails, and flits of the same packet not yet past the faulty link
// sit upstream where BufferedTails/LinkTails count them as usual.)
type Census struct {
	Injected      uint64 // packets handed to Send
	Delivered     uint64 // tail flits ejected (incl. loopback deliveries)
	Queued        int    // waiting or streaming in source NIs
	LinkTails     int    // tail flits in flight on links (dups and drop-marked events excluded)
	BufferedTails int    // tail flits in router input VCs
	Loopback      int    // pending src==dst deliveries
	Dropped       uint64 // tails removed by the fault injector
}

// CensusNow scans the wheel, the routers and the NIs and returns the
// packet census. O(nodes + wheel span + events in flight) —
// diagnostic-path only.
func (n *Network) CensusNow() Census {
	c := Census{
		Injected:  n.Injected(),
		Delivered: n.Delivered(),
		Loopback:  len(n.loopback),
	}
	if n.faults != nil {
		c.Dropped = n.faults.Stats.DroppedTails.Load()
	}
	tails := func(_ uint64, ev flitEvent) {
		if ev.fate == fateNormal && ev.isTail() {
			c.LinkTails++
		}
	}
	each(&n.wheel, n.wheel.flits, tails)
	each(&n.wheel, n.wheel.ejects, tails)
	for _, ni := range n.NIs {
		c.Queued += ni.QueuedPkts
	}
	for _, r := range n.Routers {
		for i := range r.in {
			// A VC buffers flits of one packet, so its tail can only be
			// the newest flit.
			if vc := &r.in[i]; vc.n > 0 && int(vc.seq)+int(vc.n) == vc.pkt.Size {
				c.BufferedTails++
			}
		}
	}
	return c
}

// InFlight is the number of packets the census locates inside the
// network (everything injected but neither delivered nor dropped).
func (c Census) InFlight() int {
	return c.Queued + c.LinkTails + c.BufferedTails + c.Loopback
}

// CheckConservation verifies the packet-conservation invariant:
// injected == delivered + in-flight + dropped. A violation means a
// packet was lost or double-counted by the network itself (as opposed
// to deliberately dropped by the injector) — always a simulator bug.
func (n *Network) CheckConservation() error {
	c := n.CensusNow()
	if c.Delivered+uint64(c.InFlight())+c.Dropped != c.Injected {
		return fmt.Errorf(
			"noc: packet conservation violated: injected %d != delivered %d + in-flight %d (queued %d, link %d, buffered %d, loopback %d) + dropped %d",
			c.Injected, c.Delivered, c.InFlight(), c.Queued, c.LinkTails, c.BufferedTails, c.Loopback, c.Dropped)
	}
	return nil
}

// CheckCreditBounds verifies that every credit counter — router output
// ports and NI injection ports — lies in [0, VCDepth]. Fault injection
// must be credit-neutral (a dropped flit's slot is credited back by the
// receiver on arrival), so out-of-range counters are a simulator bug
// even under faults.
func (n *Network) CheckCreditBounds() error {
	for idx, cr := range n.credits {
		if cr < 0 || int(cr) > n.Cfg.VCDepth {
			return fmt.Errorf("noc: %s credits %d outside [0, %d]", n.creditName(idx), cr, n.Cfg.VCDepth)
		}
	}
	return nil
}
