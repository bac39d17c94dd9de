package kernel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel/protocol"
	"repro/internal/sim"
)

// cliHarness drives a Client directly: outgoing messages are captured and
// the test plays the controller's role.
type cliHarness struct {
	cli  *Client
	dq   sim.DelayQueue
	sent []*Msg
	now  uint64
	held uint64 // value returned by the cumHeld probe
}

func newCliHarness(cfg Config) *cliHarness {
	cfg.Validate()
	p, err := protocol.New(cfg.Protocol, protocol.Params{
		MeshW: 4, MeshH: 4,
		MaxSpin:      cfg.Policy.MaxSpin,
		QueueHandoff: !cfg.Policy.Enabled,
	})
	if err != nil {
		panic(err)
	}
	h := &cliHarness{}
	h.cli = newClient(&cfg, 0, 16, p.NewWaitPolicy(),
		func(now uint64, dst int, m Msg, prio core.Priority) { h.sent = append(h.sent, &m) },
		func(lock int, now uint64) uint64 { return h.held },
		&h.dq)
	return h
}

func (h *cliHarness) take() []*Msg {
	out := h.sent
	h.sent = nil
	return out
}

// advance runs the client's timers forward by d cycles.
func (h *cliHarness) advance(d uint64) {
	h.now += d
	h.dq.RunDue(h.now)
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.SpinInterval = 10
	cfg.SleepPrepLatency = 50
	cfg.WakeLatency = 80
	cfg.Policy = core.DefaultPolicy()
	cfg.Policy.MaxSpin = 4
	return cfg
}

func TestClientImmediateGrant(t *testing.T) {
	h := newCliHarness(testCfg())
	acquired := uint64(0)
	h.cli.Lock(0, 3, func(now uint64) { acquired = now })
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgTryLock || msgs[0].RTR != 4 {
		t.Fatalf("initial try: %+v", msgs)
	}
	h.now = 20
	h.cli.Deliver(20, &Msg{Type: MsgGrant, To: ToClient, Lock: 3, Thread: 0, AcquiredAt: 10})
	if acquired != 20 {
		t.Fatalf("callback at %d", acquired)
	}
	if h.cli.State() != StateHolding || !h.cli.Busy() == true {
		// Busy is false once granted (cur cleared); state is holding.
	}
	if h.cli.SpinAcquires != 1 {
		t.Fatalf("spin acquires = %d", h.cli.SpinAcquires)
	}
}

func TestClientBudgetDrainsToSleep(t *testing.T) {
	h := newCliHarness(testCfg())
	h.cli.Lock(0, 3, nil)
	h.take()
	h.cli.Deliver(1, &Msg{Type: MsgFail, To: ToClient, Lock: 3, Thread: 0})
	// Budget 4, interval 10: the FUTEX_WAIT must go out by cycle ~40.
	h.advance(60)
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgFutexWait {
		t.Fatalf("expected FutexWait, got %+v", msgs)
	}
	if h.cli.State() != StateSleepPrep {
		t.Fatalf("state = %s", h.cli.State())
	}
	// Sleep preparation completes.
	h.advance(60)
	if h.cli.State() != StateSleeping {
		t.Fatalf("state = %s", h.cli.State())
	}
	if h.cli.TotalSleeps != 1 {
		t.Fatalf("sleeps = %d", h.cli.TotalSleeps)
	}
}

func TestClientNotifyTriggersRetry(t *testing.T) {
	h := newCliHarness(testCfg())
	h.cli.Lock(0, 3, nil)
	h.take()
	h.cli.Deliver(1, &Msg{Type: MsgFail, To: ToClient, Lock: 3, Thread: 0})
	if got := h.take(); len(got) != 0 {
		t.Fatalf("fail should not send: %+v", got)
	}
	// Release notification: immediate re-request with decremented... RTR
	// reflects remaining budget at send time.
	h.cli.Deliver(5, &Msg{Type: MsgNotify, To: ToClient, Lock: 3, Thread: 0})
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgTryLock {
		t.Fatalf("notify retry: %+v", msgs)
	}
}

func TestClientNotifyWhileOutstandingDefers(t *testing.T) {
	h := newCliHarness(testCfg())
	h.cli.Lock(0, 3, nil)
	h.take()
	// Notify arrives before the Fail of the outstanding request.
	h.cli.Deliver(2, &Msg{Type: MsgNotify, To: ToClient, Lock: 3, Thread: 0})
	if got := h.take(); len(got) != 0 {
		t.Fatalf("retry sent while outstanding: %+v", got)
	}
	// The Fail triggers the deferred retry immediately.
	h.cli.Deliver(3, &Msg{Type: MsgFail, To: ToClient, Lock: 3, Thread: 0})
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgTryLock {
		t.Fatalf("deferred retry missing: %+v", msgs)
	}
}

func TestClientWakeupDuringPrep(t *testing.T) {
	h := newCliHarness(testCfg())
	h.cli.Lock(0, 3, nil)
	h.take()
	h.cli.Deliver(1, &Msg{Type: MsgFail, To: ToClient, Lock: 3, Thread: 0})
	h.advance(60) // budget gone -> FutexWait sent, in SleepPrep
	h.take()
	// Wakeup lands mid-preparation (Fig. 5a slow scenario).
	h.cli.Deliver(h.now, &Msg{Type: MsgWakeup, To: ToClient, Lock: 3, Thread: 0})
	if h.cli.State() != StateSleepPrep {
		t.Fatalf("state = %s", h.cli.State())
	}
	// Prep finishes -> waking -> retry after wake latency.
	h.advance(60)
	if h.cli.State() != StateWaking {
		t.Fatalf("state = %s, want waking", h.cli.State())
	}
	h.advance(100)
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgTryLock {
		t.Fatalf("post-wake retry missing: %+v", msgs)
	}
	if h.cli.State() != StateSpinning {
		t.Fatalf("state = %s", h.cli.State())
	}
}

func TestClientUnlockSequence(t *testing.T) {
	h := newCliHarness(testCfg())
	h.cli.Lock(0, 3, nil)
	h.take()
	h.cli.Deliver(10, &Msg{Type: MsgGrant, To: ToClient, Lock: 3, Thread: 0, AcquiredAt: 5})
	h.cli.Unlock(50)
	msgs := h.take()
	if len(msgs) != 2 || msgs[0].Type != MsgRelease || msgs[1].Type != MsgFutexWake {
		t.Fatalf("unlock sequence: %+v", msgs)
	}
	if h.cli.Prog() != 1 {
		t.Fatalf("prog = %d", h.cli.Prog())
	}
	if rtr := msgs[1].Prog; rtr != 1 {
		t.Fatalf("futex wake prog = %d", rtr)
	}
	if h.cli.State() != StateIdle {
		t.Fatalf("state = %s", h.cli.State())
	}
}

func TestClientCOHAccounting(t *testing.T) {
	h := newCliHarness(testCfg())
	var ev *AcquireEvent
	h.cli.SetListener(listenerFunc(func(e AcquireEvent) { ev = &e }))
	h.held = 100 // cumulative hold time at Lock()
	h.cli.Lock(0, 3, nil)
	h.take()
	// By the grant, others held the lock 300 more cycles; our own grant
	// was assigned at cycle 380.
	h.held = 400
	h.cli.Deliver(400, &Msg{Type: MsgGrant, To: ToClient, Lock: 3, Thread: 0, AcquiredAt: 380})
	if ev == nil {
		t.Fatal("no event")
	}
	if ev.BT != 400 {
		t.Fatalf("BT = %d", ev.BT)
	}
	// heldDuring = 300, minus our own 20 in-flight cycles = 280.
	if ev.HeldByOthers != 280 {
		t.Fatalf("held by others = %d", ev.HeldByOthers)
	}
	if ev.COH != 120 {
		t.Fatalf("COH = %d", ev.COH)
	}
	if ev.COH+ev.HeldByOthers != ev.BT {
		t.Fatal("decomposition broken")
	}
}

func TestClientStaleNotifyIgnored(t *testing.T) {
	h := newCliHarness(testCfg())
	h.cli.Lock(0, 3, nil)
	h.take()
	h.cli.Deliver(10, &Msg{Type: MsgGrant, To: ToClient, Lock: 3, Thread: 0, AcquiredAt: 5})
	// A late notification for the completed acquisition must be ignored.
	h.cli.Deliver(12, &Msg{Type: MsgNotify, To: ToClient, Lock: 3, Thread: 0})
	if got := h.take(); len(got) != 0 {
		t.Fatalf("stale notify acted on: %+v", got)
	}
}

func TestClientRTRInPackets(t *testing.T) {
	// The RTR stamped into successive retries must decrease as the budget
	// drains (Algorithm 1 line 5).
	cfg := testCfg()
	cfg.Policy.MaxSpin = 10
	h := newCliHarness(cfg)
	h.cli.Lock(0, 3, nil)
	first := h.take()[0]
	if first.RTR != 10 {
		t.Fatalf("first RTR = %d", first.RTR)
	}
	h.cli.Deliver(1, &Msg{Type: MsgFail, To: ToClient, Lock: 3, Thread: 0})
	h.advance(35) // 3 ticks: budget 10 -> 7
	h.cli.Deliver(h.now, &Msg{Type: MsgNotify, To: ToClient, Lock: 3, Thread: 0})
	retry := h.take()[0]
	if retry.RTR >= first.RTR {
		t.Fatalf("RTR did not decrease: %d -> %d", first.RTR, retry.RTR)
	}
}
