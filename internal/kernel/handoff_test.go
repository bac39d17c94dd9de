package kernel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel/protocol"
	"repro/internal/noc"
	"repro/internal/sim"
)

// ctlHarness drives a Controller directly, capturing outgoing messages.
type ctlHarness struct {
	ctl  *Controller
	sent []*Msg
	dsts []int
}

func newCtlHarness(queueHandoff bool) *ctlHarness {
	return newProtoHarness(protocol.Default, queueHandoff)
}

// newProtoHarness drives a controller under an arbitrary lock protocol
// (4x4 mesh parameters, MaxSpin default).
func newProtoHarness(proto string, queueHandoff bool) *ctlHarness {
	p, err := protocol.New(proto, protocol.Params{MeshW: 4, MeshH: 4, QueueHandoff: queueHandoff})
	if err != nil {
		panic(err)
	}
	h := &ctlHarness{}
	h.ctl = newController(0, p, func(now uint64, dst int, m Msg) {
		h.sent = append(h.sent, &m)
		h.dsts = append(h.dsts, dst)
	})
	return h
}

func (h *ctlHarness) clear() { h.sent, h.dsts = nil, nil }

func (h *ctlHarness) last() *Msg {
	if len(h.sent) == 0 {
		return nil
	}
	return h.sent[len(h.sent)-1]
}

func try(lock, thread int) *Msg {
	return &Msg{Type: MsgTryLock, To: ToController, Lock: lock, From: thread, Thread: thread}
}

func TestControllerGrantAndFail(t *testing.T) {
	h := newCtlHarness(true)
	h.ctl.Deliver(10, try(1, 3))
	if m := h.last(); m == nil || m.Type != MsgGrant || m.AcquiredAt != 10 {
		t.Fatalf("first try: %+v", h.last())
	}
	h.ctl.Deliver(11, try(1, 4))
	if m := h.last(); m == nil || m.Type != MsgFail {
		t.Fatalf("second try: %+v", h.last())
	}
	if h.ctl.Pollers(1) != 1 {
		t.Fatalf("failing thread not registered as poller: %d", h.ctl.Pollers(1))
	}
	held, holder := h.ctl.Held(1)
	if !held || holder != 3 {
		t.Fatalf("held=%v holder=%d", held, holder)
	}
}

func TestQueueHandoffReservation(t *testing.T) {
	// Baseline semantics: a release with sleepers hands the lock to the
	// queue head; other try-locks fail until the reserved thread claims it.
	h := newCtlHarness(true)
	h.ctl.Deliver(0, try(5, 1))                                                               // thread 1 holds
	h.ctl.Deliver(1, &Msg{Type: MsgFutexWait, To: ToController, Lock: 5, From: 2, Thread: 2}) // thread 2 sleeps
	h.clear()
	h.ctl.Deliver(10, &Msg{Type: MsgRelease, To: ToController, Lock: 5, From: 1, Thread: 1})
	// Release must have woken thread 2 with a reservation.
	if len(h.sent) != 1 || h.sent[0].Type != MsgWakeup || h.sent[0].Thread != 2 {
		t.Fatalf("release did not wake queue head: %+v", h.sent)
	}
	if h.ctl.Sleepers(5) != 0 {
		t.Fatal("queue head not popped")
	}
	// A spinner's try-lock fails against the reservation.
	h.clear()
	h.ctl.Deliver(11, try(5, 3))
	if m := h.last(); m.Type != MsgFail {
		t.Fatalf("barging try succeeded against reservation: %v", m.Type)
	}
	// The reserved thread claims the lock.
	h.clear()
	h.ctl.Deliver(20, try(5, 2))
	if m := h.last(); m.Type != MsgGrant {
		t.Fatalf("reserved thread denied: %v", m.Type)
	}
	held, holder := h.ctl.Held(5)
	if !held || holder != 2 {
		t.Fatalf("holder = %d", holder)
	}
}

func TestOCORNoReservation(t *testing.T) {
	// OCOR semantics: the release frees the lock for everyone; the wakeup
	// happens on FUTEX_WAKE and the woken thread must re-contend.
	h := newCtlHarness(false)
	h.ctl.Deliver(0, try(5, 1))
	h.ctl.Deliver(1, &Msg{Type: MsgFutexWait, To: ToController, Lock: 5, From: 2, Thread: 2})
	h.clear()
	h.ctl.Deliver(10, &Msg{Type: MsgRelease, To: ToController, Lock: 5, From: 1, Thread: 1})
	// No reservation: a barging spinner wins immediately.
	h.ctl.Deliver(11, try(5, 3))
	if m := h.last(); m.Type != MsgGrant || m.Thread != 3 {
		t.Fatalf("barging denied under OCOR: %+v", m)
	}
	// FUTEX_WAKE pops the sleeper, who will fail and re-sleep.
	h.clear()
	h.ctl.Deliver(12, &Msg{Type: MsgFutexWake, To: ToController, Lock: 5, From: 1, Thread: 1})
	if len(h.sent) != 1 || h.sent[0].Type != MsgWakeup || h.sent[0].Thread != 2 {
		t.Fatalf("futex wake: %+v", h.sent)
	}
}

func TestReleaseNotifiesPollers(t *testing.T) {
	h := newCtlHarness(false)
	h.ctl.Deliver(0, try(7, 1))
	h.ctl.Deliver(1, try(7, 2))
	h.ctl.Deliver(2, try(7, 3))
	if h.ctl.Pollers(7) != 2 {
		t.Fatalf("pollers = %d", h.ctl.Pollers(7))
	}
	h.clear()
	h.ctl.Deliver(10, &Msg{Type: MsgRelease, To: ToController, Lock: 7, From: 1, Thread: 1})
	notifies := 0
	for _, m := range h.sent {
		if m.Type == MsgNotify {
			notifies++
		}
	}
	if notifies != 2 {
		t.Fatalf("notifies = %d, want 2", notifies)
	}
	if h.ctl.Pollers(7) != 0 {
		t.Fatal("polling list not cleared on release")
	}
}

func TestBaselineReservationSkipsNotify(t *testing.T) {
	// With a queue handoff the lock is not up for grabs, so spinning
	// pollers are not notified (their retries would only fail).
	h := newCtlHarness(true)
	h.ctl.Deliver(0, try(7, 1))
	h.ctl.Deliver(1, try(7, 2)) // poller
	h.ctl.Deliver(2, &Msg{Type: MsgFutexWait, To: ToController, Lock: 7, From: 3, Thread: 3})
	h.clear()
	h.ctl.Deliver(10, &Msg{Type: MsgRelease, To: ToController, Lock: 7, From: 1, Thread: 1})
	for _, m := range h.sent {
		if m.Type == MsgNotify {
			t.Fatal("pollers notified despite reservation")
		}
	}
}

func TestFutexWaitOnFreeLockBouncesBack(t *testing.T) {
	h := newCtlHarness(true)
	h.ctl.Deliver(0, &Msg{Type: MsgFutexWait, To: ToController, Lock: 9, From: 4, Thread: 4})
	if m := h.last(); m == nil || m.Type != MsgWakeup || m.Thread != 4 {
		t.Fatalf("futex re-check did not bounce: %+v", h.last())
	}
	if h.ctl.Stats.ImmediateWakes != 1 {
		t.Fatalf("stats: %+v", h.ctl.Stats)
	}
	if h.ctl.Sleepers(9) != 0 {
		t.Fatal("thread queued despite free lock")
	}
}

func TestFutexWaitDuringReservationQueues(t *testing.T) {
	// A FUTEX_WAIT arriving while the lock is reserved (free but promised)
	// must queue, not bounce.
	h := newCtlHarness(true)
	h.ctl.Deliver(0, try(9, 1))
	h.ctl.Deliver(1, &Msg{Type: MsgFutexWait, To: ToController, Lock: 9, From: 2, Thread: 2})
	h.ctl.Deliver(10, &Msg{Type: MsgRelease, To: ToController, Lock: 9, From: 1, Thread: 1}) // reserves for 2
	h.clear()
	h.ctl.Deliver(11, &Msg{Type: MsgFutexWait, To: ToController, Lock: 9, From: 3, Thread: 3})
	if len(h.sent) != 0 {
		t.Fatalf("wait during reservation bounced: %+v", h.sent)
	}
	if h.ctl.Sleepers(9) != 1 {
		t.Fatalf("sleepers = %d", h.ctl.Sleepers(9))
	}
}

func TestEmptyFutexWake(t *testing.T) {
	h := newCtlHarness(false)
	h.ctl.Deliver(0, &Msg{Type: MsgFutexWake, To: ToController, Lock: 2, From: 0, Thread: 0})
	if len(h.sent) != 0 {
		t.Fatal("empty wake sent something")
	}
	if h.ctl.Stats.EmptyWakes != 1 {
		t.Fatalf("stats: %+v", h.ctl.Stats)
	}
}

func TestCumHeldAccounting(t *testing.T) {
	h := newCtlHarness(false)
	h.ctl.Deliver(100, try(1, 5))
	if got := h.ctl.CumHeld(1, 150); got != 50 {
		t.Fatalf("partial hold = %d, want 50", got)
	}
	h.ctl.Deliver(180, &Msg{Type: MsgRelease, To: ToController, Lock: 1, From: 5, Thread: 5})
	if got := h.ctl.CumHeld(1, 300); got != 80 {
		t.Fatalf("completed hold = %d, want 80", got)
	}
	if got := h.ctl.CumHeld(99, 300); got != 0 {
		t.Fatalf("unknown lock hold = %d", got)
	}
}

func TestGrantCarriesRequestPriorityFields(t *testing.T) {
	h := newCtlHarness(false)
	m := try(1, 5)
	m.RTR, m.Prog = 17, 4
	h.ctl.Deliver(0, m)
	g := h.last()
	if g.RTR != 17 || g.Prog != 4 {
		t.Fatalf("grant lost priority fields: %+v", g)
	}
}

// TestWakeupLastEndToEnd runs the full platform race of Fig. 5b: a sleeper
// and a spinner compete at a release; under OCOR the spinner must win.
func TestWakeupLastEndToEnd(t *testing.T) {
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = 4, 4
	ncfg.Priority = true
	net, err := noc.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := DefaultConfig()
	kcfg.Policy = core.DefaultPolicy()
	kcfg.Policy.MaxSpin = 4
	kcfg.SpinInterval = 40
	kcfg.SleepPrepLatency = 100
	kcfg.WakeLatency = 200
	ks := MustSystem(kcfg, net)
	for i := 0; i < ncfg.Nodes(); i++ {
		node := i
		net.SetSink(node, func(now uint64, pkt *noc.Packet) {
			ks.DeliverPacket(now, node, pkt)
		})
	}
	e := sim.NewEngine()
	e.Register(net)
	e.Register(ks)

	const lock = 3
	// Thread 0 takes the lock.
	got0 := false
	ks.Lock(0, 0, lock, func(uint64) { got0 = true })
	e.MaxCycles = 1 << 20
	e.RunUntil(func() bool { return got0 })
	// Thread 1 exhausts its spin budget and sleeps.
	ks.Lock(e.Now(), 1, lock, nil)
	e.RunUntil(func() bool { return ks.client(1).State() == StateSleeping })
	// Thread 2 arrives and is still spinning when thread 0 releases
	// (budget 4 x 40-cycle intervals = a 160-cycle window).
	got2 := false
	ks.Lock(e.Now(), 2, lock, func(uint64) { got2 = true })
	start := e.Now()
	e.RunUntil(func() bool { return e.Now() > start+30 })
	ks.Unlock(e.Now(), 0)
	e.RunUntil(func() bool { return got2 })
	// The spinner won while the sleeper (lower wake priority + wake
	// latency) is still on its way.
	if !got2 {
		t.Fatal("spinner did not win the release race")
	}
	if ks.client(2).SleepAcquires != 0 {
		t.Fatal("spinner was forced through the sleep path")
	}
}
