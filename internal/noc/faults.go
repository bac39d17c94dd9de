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
	n.lastDue = make([]uint64, n.Cfg.Nodes()*int(NumDirs))
	n.wheel.forEach(func(due uint64, ev flitEvent) {
		k := int(ev.node)*int(NumDirs) + int(ev.port)
		n.lastDue[k] = max(n.lastDue[k], due)
	}, func(uint64, uint32) {})
}

// resizeWheel gives the wheel the span a link flight of flight cycles
// needs, moving any events in flight into the new slots. A wheel holding
// events never shrinks: they may be due further out than the new span.
func (n *Network) resizeWheel(flight int) {
	w := newWheel(flight)
	if w.span() == n.wheel.span() || w.span() < n.wheel.span() && n.wheel.nflits+n.wheel.ncredits > 0 {
		return
	}
	w.base = n.wheel.base
	n.wheel.forEach(w.pushFlit, w.pushCredit)
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

// CensusNow scans the network and returns the packet census. O(nodes ×
// links) — diagnostic-path only.
func (n *Network) CensusNow() Census {
	c := Census{
		Injected:  n.Injected(),
		Delivered: n.Delivered(),
		Loopback:  len(n.loopback),
	}
	if n.faults != nil {
		c.Dropped = n.faults.Stats.DroppedTails.Load()
	}
	n.wheel.forEach(func(_ uint64, ev flitEvent) {
		if ev.fate == fateNormal && ev.isTail() {
			c.LinkTails++
		}
	}, func(uint64, uint32) {})
	for _, ni := range n.NIs {
		c.Queued += ni.QueuedPkts
		for _, ev := range ni.inFlits {
			if ev.fate == fateNormal && int(ev.seq) == ev.pkt.Size-1 {
				c.LinkTails++
			}
		}
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
	depth := n.Cfg.VCDepth
	for _, r := range n.Routers {
		for d := Dir(0); d < NumDirs; d++ {
			if !n.Cfg.linked(r.id, d) {
				continue
			}
			for v, cr := range r.out[d].credits {
				if cr < 0 || int(cr) > depth {
					return fmt.Errorf("noc: router %d dir %s vc %d credits %d outside [0, %d]",
						r.id, d, v, cr, depth)
				}
			}
		}
	}
	for _, ni := range n.NIs {
		for v, cr := range ni.outCredits {
			if cr < 0 || int(cr) > depth {
				return fmt.Errorf("noc: NI %d vc %d credits %d outside [0, %d]",
					ni.node, v, cr, depth)
			}
		}
	}
	return nil
}
