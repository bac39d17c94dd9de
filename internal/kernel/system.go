package kernel

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel/protocol"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim"
)

// System wires one lock Client per node (thread i on node i) and one lock
// Controller per node (owning the locks homed there) over the NoC. A
// node's client is built on its first lock call or delivery, so a node
// that never runs a thread costs no client. It implements sim.Component
// for its internal timers (spin intervals, sleep preparation, wake-up).
type System struct {
	Cfg Config
	Net *noc.Network

	// clients holds every node's lock client; nil until the node's first
	// use (see client).
	clients     []*Client
	Controllers []*Controller

	// proto is the configured lock protocol (Cfg.Protocol resolved).
	proto protocol.Protocol
	// listener and obs are what SetListener and SetObserver installed;
	// a client built later starts with them.
	listener Listener
	obs      *obs.Recorder
	// freshClient caches the checkpoint record of a never-used client
	// (see freshClientRecord).
	freshClient []byte

	delay sim.DelayQueue
	// msgs recycles protocol messages: sendMsg draws a slot, the carrying
	// packet holds its ref, and Deliver frees it once the handler returns
	// (every handler consumes its message synchronously).
	msgs pool.Slab[Msg]
}

// NewSystem builds the lock machinery on top of net.
func NewSystem(cfg Config, net *noc.Network) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Net: net}
	proto, err := protocol.New(cfg.Protocol, protocol.Params{
		MeshW:        net.Cfg.Width,
		MeshH:        net.Cfg.Height,
		MaxSpin:      cfg.Policy.MaxSpin,
		SpinBudget:   cfg.MutableSpinBudget,
		CNALocalCap:  cfg.CNALocalCap,
		QueueHandoff: !cfg.Policy.Enabled,
	})
	if err != nil {
		return nil, err
	}
	s.proto = proto
	nodes := net.Cfg.Nodes()
	s.clients = make([]*Client, nodes)
	s.Controllers = make([]*Controller, nodes)
	for i := 0; i < nodes; i++ {
		node := i
		ctlSend := func(now uint64, dst int, m Msg) { s.sendMsg(now, node, dst, m, core.Normal) }
		s.Controllers[i] = newController(node, proto, ctlSend)
	}
	return s, nil
}

// client returns node's lock client, building it on first use with the
// system's current listener and observer. Building one has no side effect
// on the simulation, so a client that exists only because it was asked
// for behaves, and checkpoints, exactly like one never built.
func (s *System) client(node int) *Client {
	if c := s.clients[node]; c != nil {
		return c
	}
	return s.buildClient(node)
}

// buildClient builds node's client. It is kept out of client so that
// client's check inlines into every lock call and delivery.
func (s *System) buildClient(node int) *Client {
	send := func(now uint64, dst int, m Msg, prio core.Priority) { s.sendMsg(now, node, dst, m, prio) }
	c := newClient(&s.Cfg, node, len(s.clients), s.proto.NewWaitPolicy(), send, s.CumHeld, &s.delay)
	c.SetListener(s.listener)
	c.obs = s.obs
	s.clients[node] = c
	return c
}

// Protocol returns the name of the configured lock protocol.
func (s *System) Protocol() string { return s.proto.Name() }

// MustSystem is NewSystem for configurations known valid; it panics on a
// validation error (tests and fixed internal configs).
func MustSystem(cfg Config, net *noc.Network) *System {
	s, err := NewSystem(cfg, net)
	if err != nil {
		panic(err)
	}
	return s
}

// SetFaults attaches a fault injector to every controller (nil detaches),
// enabling the FUTEX_WAKE-loss fault. The flit-level faults live in the
// network; this hook covers the wake deliveries the kernel model sends
// outside the flit path's default class mask.
func (s *System) SetFaults(inj *fault.Injector) {
	for _, c := range s.Controllers {
		c.faults = inj
	}
}

// classOf maps lock-protocol messages to NoC traffic classes and virtual
// networks. Try-locks, grants, fails and futex-waits are locking traffic;
// FUTEX_WAKE is the wakeup class ("Wakeup Request Last"); releases and
// wake-up deliveries are ordinary control traffic.
func classOf(t MsgType) (noc.Class, int) {
	switch t {
	case MsgTryLock, MsgFutexWait:
		return noc.ClassLock, noc.VNetRequest
	case MsgGrant, MsgFail:
		return noc.ClassLock, noc.VNetResponse
	case MsgFutexWake:
		return noc.ClassWakeup, noc.VNetRequest
	case MsgRelease:
		return noc.ClassCtrl, noc.VNetRequest
	case MsgWakeup, MsgNotify:
		return noc.ClassCtrl, noc.VNetForward
	}
	panic(fmt.Sprintf("kernel: no class for %s", t))
}

// sendMsg copies mv into a slab slot and wraps it in a NoC packet. Taking
// the message by value keeps the callers' composite literals on the stack:
// the only heap traffic left on this path is the (recycled) slot itself.
func (s *System) sendMsg(now uint64, src, dst int, mv Msg, prio core.Priority) {
	class, vnet := classOf(mv.Type)
	ref, m := s.msgs.Alloc()
	mv.ref = ref
	*m = mv
	pkt := s.Net.NewPacketRef(src, dst, class, vnet, noc.PayloadKernel, ref)
	m.PktID = pkt.ID
	pkt.Prio = prio
	// Grants and fails inherit the priority of the request they answer, so
	// the response leg of a critical try-lock is expedited the same way.
	if s.Cfg.Policy.Enabled && (m.Type == MsgGrant || m.Type == MsgFail) {
		pkt.Prio = s.Cfg.Policy.LockPriority(m.RTR, m.Prog)
	}
	s.Net.Send(now, pkt)
}

// MsgAt resolves a PayloadKernel packet reference to its message (the
// platform's delivery demultiplexer uses it; panics on stale refs).
func (s *System) MsgAt(ref uint32) *Msg { return s.msgs.At(ref) }

// MsgsLive reports pooled messages not yet recycled; a quiescent system
// must report zero (leak check).
func (s *System) MsgsLive() int { return s.msgs.Live() }

// DeliverPacket resolves a packet carrying a lock-protocol message's slab
// ref, delivers the message at node, and recycles the packet. Network
// sinks for kernel-only setups use it directly.
func (s *System) DeliverPacket(now uint64, node int, pkt *noc.Packet) {
	s.Deliver(now, node, s.msgs.At(pkt.PayloadRef))
	s.Net.FreePacket(pkt)
}

// Deliver dispatches a lock-protocol message that arrived at node and
// recycles it afterwards: every client and controller handler consumes its
// message synchronously, never retaining it past the call.
func (s *System) Deliver(now uint64, node int, m *Msg) {
	switch m.To {
	case ToController:
		s.Controllers[node].Deliver(now, m)
	case ToClient:
		s.client(node).Deliver(now, m)
	}
	s.msgs.Free(m.ref)
}

// CumHeld returns the cumulative held time of a lock (home-node view);
// instrumentation used for the paper's COH decomposition.
func (s *System) CumHeld(lock int, now uint64) uint64 {
	return s.Controllers[LockHome(lock, len(s.Controllers))].CumHeld(lock, now)
}

// Lock acquires lock on behalf of thread (== node); cb runs at acquisition.
func (s *System) Lock(now uint64, thread, lock int, cb func(now uint64)) {
	s.client(thread).Lock(now, lock, cb)
}

// Unlock releases the lock currently held by thread.
func (s *System) Unlock(now uint64, thread int) {
	s.client(thread).Unlock(now)
}

// SetListener installs l on every client, including ones built later.
func (s *System) SetListener(l Listener) {
	s.listener = l
	for _, c := range s.clients {
		if c != nil {
			c.SetListener(l)
		}
	}
}

// SetObserver attaches a structured-event recorder to every client,
// including ones built later, and every controller (nil detaches).
// Emission is read-only: results are identical with or without it.
func (s *System) SetObserver(r *obs.Recorder) {
	s.obs = r
	for _, c := range s.clients {
		if c != nil {
			c.obs = r
		}
	}
	for _, c := range s.Controllers {
		c.obs = r
	}
}

// Tick implements sim.Component.
func (s *System) Tick(now uint64) { s.delay.RunDue(now) }

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

// Pending reports in-flight lock operations (for quiescence checks).
func (s *System) Pending() int {
	n := s.delay.Len()
	for _, c := range s.clients {
		if c != nil && c.Busy() {
			n++
		}
	}
	return n
}

// LockStats returns the per-lock summaries of every lock in the system,
// sorted by lock id (for "which lock is hot" analyses).
func (s *System) LockStats(now uint64) []LockStat {
	var out []LockStat
	for _, c := range s.Controllers {
		out = append(out, c.LockStats(now)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lock < out[j].Lock })
	return out
}

// RecoveryStats aggregates the recovery machinery's activity across all
// clients and controllers. Every field is zero in a fault-free run —
// recovery timers are sized to never fire on a healthy NoC.
type RecoveryStats struct {
	ReqTimeouts   uint64 `json:"req_timeouts"`
	SleepRechecks uint64 `json:"sleep_rechecks"`
	DupGrants     uint64 `json:"dup_grants"`
	StaleFails    uint64 `json:"stale_fails"`
	StaleWakeups  uint64 `json:"stale_wakeups"`
	Regrants      uint64 `json:"regrants"`
}

// RecoveryStats sums the recovery counters of the whole system.
func (s *System) RecoveryStats() RecoveryStats {
	var r RecoveryStats
	for _, c := range s.clients {
		if c == nil {
			continue
		}
		r.ReqTimeouts += c.ReqTimeouts
		r.SleepRechecks += c.SleepRechecks
		r.DupGrants += c.DupGrants
		r.StaleFails += c.StaleFails
		r.StaleWakeups += c.StaleWakeups
	}
	for _, c := range s.Controllers {
		r.Regrants += c.Stats.Regrants
	}
	return r
}

// BlockedThread is one row of the watchdog's blocked-thread diagnostic:
// a thread stuck in a lock acquisition longer than the caller's budget.
type BlockedThread struct {
	Thread      int
	State       ThreadState
	Lock        int
	Since       uint64 // cycle of the last state change
	Outstanding bool   // a try-lock request is in flight
	Retries     int
	Sleeps      int
}

// BlockedThreads lists the threads that have sat in one locking-path
// state for more than budget cycles as of now.
func (s *System) BlockedThreads(now, budget uint64) []BlockedThread {
	var out []BlockedThread
	for _, c := range s.clients {
		if c == nil || c.cur == nil || now-c.stateSince <= budget {
			continue
		}
		out = append(out, BlockedThread{
			Thread:      c.node,
			State:       c.state,
			Lock:        c.cur.lock,
			Since:       c.stateSince,
			Outstanding: c.cur.outstanding,
			Retries:     c.cur.retries,
			Sleeps:      c.cur.sleeps,
		})
	}
	return out
}

// ScheduledOps returns the lifetime count of timer operations scheduled
// on the kernel's delay queue — a monotone progress signal for the
// watchdog's stall check.
func (s *System) ScheduledOps() uint64 { return s.delay.Scheduled() }
