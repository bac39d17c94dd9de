package mem

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/pool"
	"repro/internal/sim"
)

// System wires the full memory hierarchy over a NoC: one L1 and one
// directory/L2 bank per node, plus memory controllers at the configured
// nodes. A node's L1 is built on its first access or delivery, so a node
// that never runs a thread costs no cache (see L1). It implements
// sim.Component (for its internal pipelines); protocol messages arrive
// through Deliver, typically dispatched from the node's NI sink by the
// platform layer.
type System struct {
	Cfg Config
	Net *noc.Network

	// l1s holds every node's L1; nil until the node's first use.
	l1s  []*L1
	Dirs []*Directory
	MCs  map[int]*MC

	delay sim.DelayQueue
	// msgs recycles protocol messages: sendMsg draws a slot, the carrying
	// packet holds its ref, and the slot is freed once the message is
	// consumed (after the synchronous L1/MC handlers; the blocking
	// directory retains delivered messages and frees them itself at its
	// consumption points).
	msgs pool.Slab[Msg]
	// freshL1 caches the checkpoint record of a never-used L1 (see
	// freshL1Record).
	freshL1 []byte
}

// NewSystem builds the hierarchy on top of net.
func NewSystem(cfg Config, net *noc.Network) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := net.Cfg.Nodes()
	if len(cfg.MCNodes) == 0 {
		cfg.MCNodes = DefaultMCNodes(net.Cfg.Width, net.Cfg.Height)
	}
	for _, n := range cfg.MCNodes {
		if n < 0 || n >= nodes {
			return nil, fmt.Errorf("mem: MC node %d out of range", n)
		}
	}
	s := &System{Cfg: cfg, Net: net, MCs: make(map[int]*MC)}
	s.l1s = make([]*L1, nodes)
	s.Dirs = make([]*Directory, nodes)
	for i := 0; i < nodes; i++ {
		node := i
		send := func(now uint64, dst int, m Msg) { s.sendMsg(now, node, dst, m) }
		s.Dirs[i] = newDirectory(&s.Cfg, node, nodes, s.Cfg.MCNodes, send, s.freeMsg, &s.delay)
	}
	for _, n := range cfg.MCNodes {
		node := n
		send := func(now uint64, dst int, m Msg) { s.sendMsg(now, node, dst, m) }
		s.MCs[n] = newMC(&s.Cfg, node, send, &s.delay)
	}
	return s, nil
}

// L1 returns node's L1 cache, building it on first use. Building one has
// no side effect on the simulation, so an L1 that exists only because it
// was asked for behaves, and checkpoints, exactly like one never built.
func (s *System) L1(node int) *L1 {
	if l := s.l1s[node]; l != nil {
		return l
	}
	return s.buildL1(node)
}

// buildL1 builds node's L1. It is kept out of L1 so that L1's check
// inlines into every access and delivery.
func (s *System) buildL1(node int) *L1 {
	send := func(now uint64, dst int, m Msg) { s.sendMsg(now, node, dst, m) }
	l := newL1(&s.Cfg, node, len(s.l1s), send, &s.delay)
	s.l1s[node] = l
	return l
}

// sendMsg copies a protocol message into a slab slot and wraps it in a
// NoC packet. Data-bearing messages travel as 8-flit data packets, the
// rest as single-flit control packets; coherence traffic always has
// normal (lowest) OCOR priority. Taking the message by value keeps the
// callers' composite literals on the stack.
func (s *System) sendMsg(now uint64, src, dst int, mv Msg) {
	class := noc.ClassCtrl
	if mv.isData() {
		class = noc.ClassData
	}
	ref, m := s.msgs.Alloc()
	mv.ref = ref
	*m = mv
	s.Net.Send(now, s.Net.NewPacketRef(src, dst, class, m.vnet(), noc.PayloadMem, ref))
}

// freeMsg recycles a consumed message (no-op for one built outside the
// slab, e.g. by a test).
func (s *System) freeMsg(m *Msg) { s.msgs.Free(m.ref) }

// MsgAt resolves a PayloadMem packet reference to its message (the
// platform's delivery demultiplexer uses it; panics on stale refs).
func (s *System) MsgAt(ref uint32) *Msg { return s.msgs.At(ref) }

// MsgsLive reports pooled messages not yet recycled; a quiescent system
// must report zero (leak check).
func (s *System) MsgsLive() int { return s.msgs.Live() }

// DeliverPacket resolves a packet carrying a coherence message's slab
// ref, delivers the message at node, and recycles the packet. Network
// sinks for memory-only setups use it directly.
func (s *System) DeliverPacket(now uint64, node int, pkt *noc.Packet) {
	s.Deliver(now, node, s.msgs.At(pkt.PayloadRef))
	s.Net.FreePacket(pkt)
}

// Deliver dispatches a protocol message that arrived at node. L1s and MCs
// consume their messages synchronously, so those are recycled on return;
// the blocking directory retains messages (transaction queues, L2-latency
// pipeline) and owns freeing them at its consumption points.
func (s *System) Deliver(now uint64, node int, m *Msg) {
	switch m.To {
	case ToL1:
		s.L1(node).Deliver(now, m)
		s.msgs.Free(m.ref)
	case ToDir:
		s.Dirs[node].Deliver(now, m)
	case ToMC:
		mc, ok := s.MCs[node]
		if !ok {
			panic(fmt.Sprintf("mem: node %d has no MC", node))
		}
		mc.Deliver(now, m)
		s.msgs.Free(m.ref)
	}
}

// Access performs a memory operation through node's L1.
func (s *System) Access(now uint64, node int, addr uint64, write bool, cb func(now uint64)) {
	s.L1(node).Access(now, addr, write, cb)
}

// Tick implements sim.Component: advance internal pipelines.
func (s *System) Tick(now uint64) { s.delay.RunDue(now) }

// ScheduledOps returns the lifetime count of timer operations scheduled
// on the memory system's delay queue (a monotone progress signal for the
// simulation watchdog).
func (s *System) ScheduledOps() uint64 { return s.delay.Scheduled() }

// NextWake implements sim.Component.
func (s *System) NextWake(now uint64) uint64 {
	if at, ok := s.delay.Next(); ok {
		return at
	}
	return sim.Never
}

// SetWaker implements sim.WakeSetter: every action scheduled on the shared
// delay queue (including ones scheduled by other components' ticks, e.g. a
// NoC delivery callback) forwards its cycle to the engine.
func (s *System) SetWaker(w sim.Waker) { s.delay.SetNotify(w.Wake) }

// Pending reports outstanding protocol work (for quiescence checks).
func (s *System) Pending() int {
	n := s.delay.Len()
	for _, l1 := range s.l1s {
		if l1 != nil {
			n += l1.PendingOps()
		}
	}
	for _, d := range s.Dirs {
		n += d.BusyBlocks()
	}
	return n
}

// CheckCoherence verifies the single-writer/multiple-reader invariant and
// directory/L1 agreement for every block the directory knows about. It is
// used by tests and returns the first violation found.
func (s *System) CheckCoherence() error {
	type blockView struct {
		owners  []int
		sharers []int
	}
	views := make(map[uint64]*blockView)
	for n, l1 := range s.l1s {
		if l1 == nil {
			continue
		}
		for si := range l1.sets {
			for wi := range l1.sets[si] {
				ln := &l1.sets[si][wi]
				if !ln.valid {
					continue
				}
				v, ok := views[ln.addr]
				if !ok {
					v = &blockView{}
					views[ln.addr] = v
				}
				switch ln.state {
				case Modified, Exclusive, Owned:
					v.owners = append(v.owners, n)
				case Shared:
					v.sharers = append(v.sharers, n)
				}
			}
		}
	}
	for addr, v := range views {
		if len(v.owners) > 1 {
			return fmt.Errorf("mem: block %x has %d owners: %v", addr, len(v.owners), v.owners)
		}
		if len(v.owners) == 1 && len(v.sharers) > 0 {
			st := s.l1s[v.owners[0]].State(addr)
			if st == Modified || st == Exclusive {
				return fmt.Errorf("mem: block %x owned %s by %d but shared by %v", addr, st, v.owners[0], v.sharers)
			}
		}
	}
	return nil
}
