package kernel

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel/protocol"
	"repro/internal/noc"
	"repro/internal/sim"
)

// testTimers is a minimal sim.Component exposing a delay queue to the
// workload driver (the critical-section and compute-gap delays).
type testTimers struct{ dq sim.DelayQueue }

func (tt *testTimers) Tick(now uint64) { tt.dq.RunDue(now) }
func (tt *testTimers) NextWake(now uint64) uint64 {
	if at, ok := tt.dq.Next(); ok {
		return at
	}
	return sim.Never
}
func (tt *testTimers) SetWaker(w sim.Waker) { tt.dq.SetNotify(w.Wake) }

// runProtocolWorkload drives a heavily contended lock over the full
// kernel+NoC stack under one protocol: every thread of a 4x4 mesh chains
// iters acquisitions of one shared lock, holding it for a short critical
// section and pausing a compute gap between iterations. Mutual exclusion
// is enforced by the controller itself (a release by a non-holder panics),
// so the test reduces to completion (liveness) and accounting.
func runProtocolWorkload(t *testing.T, name string, ocor bool) (*System, uint64) {
	t.Helper()
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = 4, 4
	ncfg.Priority = ocor
	net, err := noc.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := DefaultConfig()
	if ocor {
		kcfg.Policy = core.DefaultPolicy()
	}
	kcfg.Policy.MaxSpin = 4
	kcfg.SpinInterval = 40
	kcfg.SleepPrepLatency = 100
	kcfg.WakeLatency = 200
	kcfg.Protocol = name
	ks := MustSystem(kcfg, net)
	for i := 0; i < ncfg.Nodes(); i++ {
		node := i
		net.SetSink(node, func(now uint64, pkt *noc.Packet) {
			ks.DeliverPacket(now, node, pkt)
		})
	}
	tt := &testTimers{}
	e := sim.NewEngine()
	e.Register(net)
	e.Register(ks)
	e.Register(tt)

	const lock = 3
	const iters = 6
	const csLen = 60 // critical-section length
	const gap = 400  // compute gap between iterations
	total := ncfg.Nodes() * iters
	done := 0
	for i := 0; i < ncfg.Nodes(); i++ {
		th := i
		rem := iters
		var cb func(now uint64)
		cb = func(now uint64) {
			tt.dq.Schedule(now+csLen, func(t2 uint64) {
				ks.Unlock(t2, th)
				done++
				rem--
				if rem > 0 {
					tt.dq.Schedule(t2+gap, func(t3 uint64) { ks.Lock(t3, th, lock, cb) })
				}
			})
		}
		ks.Lock(0, th, lock, cb)
	}
	e.MaxCycles = 1 << 24
	// Run past the last release until the in-flight tail (the final
	// FUTEX_WAKE and notifies) drains.
	e.RunUntil(func() bool { return done == total && ks.MsgsLive() == 0 })
	if done != total {
		t.Fatalf("%s ocor=%v: %d/%d acquisitions completed (stalled at cycle %d)",
			name, ocor, done, total, e.Now())
	}
	if live := ks.MsgsLive(); live != 0 {
		t.Fatalf("%s ocor=%v: %d protocol messages leaked", name, ocor, live)
	}
	return ks, uint64(total)
}

// TestProtocolsCompleteContendedWorkload runs every registered protocol,
// with and without OCOR, through the contended workload and checks the
// acquisition accounting and the protocol-specific handoff behaviour.
func TestProtocolsCompleteContendedWorkload(t *testing.T) {
	for _, name := range protocol.Known() {
		for _, ocor := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ocor=%v", name, ocor), func(t *testing.T) {
				ks, total := runProtocolWorkload(t, name, ocor)
				if got := ks.Protocol(); got != name {
					t.Fatalf("System.Protocol() = %q, want %q", got, name)
				}
				var acq uint64
				for _, c := range ks.clients {
					if c != nil {
						acq += c.Acquisitions
					}
				}
				if acq != total {
					t.Fatalf("client acquisitions = %d, want %d", acq, total)
				}
				var stat *LockStat
				for _, s := range ks.LockStats(1 << 30) {
					if s.Lock == 3 {
						s := s
						stat = &s
					}
				}
				if stat == nil || stat.Acquisitions != total {
					t.Fatalf("lock stat = %+v, want %d acquisitions", stat, total)
				}
				if stat.QueueDepth != 0 || stat.Sleepers != 0 || stat.Pollers != 0 {
					t.Fatalf("drained lock still has waiters: %+v", stat)
				}
				if stat.MaxQueueDepth == 0 {
					t.Fatalf("contended lock never queued: %+v", stat)
				}
				p, err := protocol.New(name, protocol.Params{QueueHandoff: !ocor})
				if err != nil {
					t.Fatal(err)
				}
				var handoffs uint64
				for _, c := range ks.Controllers {
					handoffs += c.Stats.Handoffs
				}
				if p.HandoffOnRelease() && (handoffs == 0 || stat.Handoffs == 0) {
					t.Fatalf("handoff protocol recorded no handoffs: ctl=%d lock=%d",
						handoffs, stat.Handoffs)
				}
				if !p.HandoffOnRelease() && handoffs != 0 {
					t.Fatalf("free-for-all protocol recorded %d handoffs", handoffs)
				}
			})
		}
	}
}

// TestExplicitHandoffNotifiesSpinner checks the MCS-style targeted handoff
// at the controller level: a release with a spinning waiter queued must
// send that waiter a single targeted notify (no wakeup, no broadcast).
func TestExplicitHandoffNotifiesSpinner(t *testing.T) {
	h := newProtoHarness("mcs", false)
	h.ctl.Deliver(0, try(5, 1)) // thread 1 holds
	h.ctl.Deliver(1, try(5, 2)) // thread 2 fails: polls and enqueues
	h.ctl.Deliver(2, try(5, 3)) // thread 3 fails: polls and enqueues
	if h.ctl.QueueDepth(5) != 2 {
		t.Fatalf("queue depth = %d, want 2", h.ctl.QueueDepth(5))
	}
	h.clear()
	h.ctl.Deliver(10, &Msg{Type: MsgRelease, To: ToController, Lock: 5, From: 1, Thread: 1})
	if len(h.sent) != 1 || h.sent[0].Type != MsgNotify || h.sent[0].Thread != 2 {
		t.Fatalf("release did not notify queue head: %+v", h.sent)
	}
	if h.ctl.Stats.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", h.ctl.Stats.Handoffs)
	}
	// The reservation holds off thread 3.
	h.clear()
	h.ctl.Deliver(11, try(5, 3))
	if m := h.last(); m.Type != MsgFail {
		t.Fatalf("barging try beat the reservation: %v", m.Type)
	}
	// The reserved spinner claims the lock and leaves the queue.
	h.clear()
	h.ctl.Deliver(12, try(5, 2))
	if m := h.last(); m.Type != MsgGrant {
		t.Fatalf("reserved spinner denied: %v", m.Type)
	}
	if h.ctl.QueueDepth(5) != 1 {
		t.Fatalf("queue depth after grant = %d, want 1 (thread 3)", h.ctl.QueueDepth(5))
	}
}

// TestExplicitHandoffWakesSleeper checks that an explicit-queue handoff to
// a waiter that went to sleep sends a wakeup, not a notify.
func TestExplicitHandoffWakesSleeper(t *testing.T) {
	h := newProtoHarness("mcs", false)
	h.ctl.Deliver(0, try(5, 1))
	h.ctl.Deliver(1, try(5, 2))                                                               // enqueues as spinner
	h.ctl.Deliver(2, &Msg{Type: MsgFutexWait, To: ToController, Lock: 5, From: 2, Thread: 2}) // now asleep
	if h.ctl.Sleepers(5) != 1 || h.ctl.QueueDepth(5) != 1 {
		t.Fatalf("sleepers=%d depth=%d, want 1/1", h.ctl.Sleepers(5), h.ctl.QueueDepth(5))
	}
	h.clear()
	h.ctl.Deliver(10, &Msg{Type: MsgRelease, To: ToController, Lock: 5, From: 1, Thread: 1})
	if len(h.sent) != 1 || h.sent[0].Type != MsgWakeup || h.sent[0].Thread != 2 {
		t.Fatalf("release did not wake sleeping successor: %+v", h.sent)
	}
	if h.ctl.Sleepers(5) != 0 {
		t.Fatal("woken successor still counted asleep")
	}
}
