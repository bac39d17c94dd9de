package kernel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/sim"
)

// newRecoveryHarness is newHarness plus a fault plan and optional
// recovery. Recovery timings are shortened to keep the tests fast; the
// ordering recheck >> wake latency >> spin interval is preserved.
func newRecoveryHarness(t testing.TB, ocor, recovery bool, plan fault.Plan) (*harness, *fault.Injector) {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = 4, 4
	ncfg.Priority = ocor
	net, err := noc.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := DefaultConfig()
	kcfg.SpinInterval = 10
	kcfg.SleepPrepLatency = 200
	kcfg.WakeLatency = 300
	if ocor {
		kcfg.Policy = core.DefaultPolicy()
	} else {
		kcfg.Policy = core.BaselinePolicy()
	}
	kcfg.Policy.MaxSpin = 8
	kcfg.Recovery = RecoveryConfig{
		Enabled:        recovery,
		RequestTimeout: 2000,
		SleepRecheck:   1000,
		MaxBackoff:     16000,
	}
	ks := MustSystem(kcfg, net)
	inj := fault.NewInjector(plan)
	net.SetFaults(inj)
	ks.SetFaults(inj)
	for i := 0; i < ncfg.Nodes(); i++ {
		node := i
		net.SetSink(node, func(now uint64, pkt *noc.Packet) {
			ks.DeliverPacket(now, node, pkt)
		})
	}
	e := sim.NewEngine()
	e.Register(net)
	e.Register(ks)
	return &harness{e: e, net: net, ks: ks}, inj
}

// sleepThenDropWake drives the acceptance scenario up to the lost
// wakeup: thread 0 holds the lock, thread 1 goes to sleep on it, thread
// 0 unlocks, and the injector swallows the (first) wake for the lock.
// Returns the acquired flag of thread 1.
func sleepThenDropWake(t *testing.T, h *harness) *bool {
	t.Helper()
	const lock = 5
	acq0 := false
	h.ks.Lock(0, 0, lock, func(uint64) { acq0 = true })
	h.run(t, 10000, func() bool { return acq0 })
	acq1 := new(bool)
	h.ks.Lock(h.e.Now(), 1, lock, func(uint64) { *acq1 = true })
	h.run(t, 100000, func() bool { return h.ks.client(1).State() == StateSleeping })
	if h.ks.Controllers[LockHome(lock, 16)].Sleepers(lock) != 1 {
		t.Fatal("thread 1 not in wait queue")
	}
	h.ks.Unlock(h.e.Now(), 0)
	return acq1
}

// wakeLossPlan swallows the first FUTEX_WAKE of lock 5.
func wakeLossPlan() fault.Plan {
	return fault.Plan{Events: []fault.Event{
		{Kind: fault.KindWakeLoss, Lock: 5, Nth: 0},
	}}
}

// TestWakeLossDeadlocksWithoutRecovery is the negative half of the
// acceptance scenario: a seeded FUTEX_WAKE loss with recovery disabled
// leaves the sleeping thread asleep forever, in both lock modes.
func TestWakeLossDeadlocksWithoutRecovery(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		h, inj := newRecoveryHarness(t, ocor, false, wakeLossPlan())
		acq1 := sleepThenDropWake(t, h)
		// Give the deadlock ample time to disprove itself.
		h.e.MaxCycles = h.e.Now() + 500_000
		h.e.RunUntil(func() bool { return *acq1 })
		if *acq1 {
			t.Fatalf("ocor=%v: thread 1 acquired despite the lost wakeup and no recovery", ocor)
		}
		if st := h.ks.client(1).State(); st != StateSleeping {
			t.Fatalf("ocor=%v: thread 1 in state %s, want sleeping", ocor, st)
		}
		if got := inj.Stats.DroppedWakes.Load(); got != 1 {
			t.Fatalf("ocor=%v: DroppedWakes = %d, want 1", ocor, got)
		}
	}
}

// TestWakeLossRecovered is the positive half: with recovery enabled the
// sleeping thread's futex recheck finds the lock available (free under
// OCOR, reserved-for-it under the baseline handoff) and completes the
// acquisition.
func TestWakeLossRecovered(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		h, inj := newRecoveryHarness(t, ocor, true, wakeLossPlan())
		acq1 := sleepThenDropWake(t, h)
		h.run(t, 1_000_000, func() bool { return *acq1 })
		if got := inj.Stats.DroppedWakes.Load(); got != 1 {
			t.Fatalf("ocor=%v: DroppedWakes = %d, want 1", ocor, got)
		}
		rs := h.ks.RecoveryStats()
		if rs.SleepRechecks == 0 {
			t.Fatalf("ocor=%v: recovery stats record no sleep rechecks: %+v", ocor, rs)
		}
		// The recovered thread must be able to finish its critical section.
		h.ks.Unlock(h.e.Now(), 1)
		h.run(t, 1_000_000, func() bool { return h.ks.Pending() == 0 && !h.net.Busy() })
	}
}

// TestDroppedLockTrafficRecovered: seeded flit drops on the locking
// classes (try-locks, grants, fails, futex traffic) must be survivable
// with recovery on — every thread still completes its critical section,
// via timeout re-issues and idempotent re-grants.
func TestDroppedLockTrafficRecovered(t *testing.T) {
	plan := fault.Plan{Seed: 41, DropRate: 0.15}
	h, inj := newRecoveryHarness(t, true, true, plan)
	const lock = 2
	completions := 0
	for n := 0; n < 16; n++ {
		th := n
		h.ks.Lock(0, th, lock, func(now uint64) {
			h.ks.delay.Schedule(now+30, func(u uint64) {
				h.ks.Unlock(u, th)
				completions++
			})
		})
	}
	h.run(t, 50_000_000, func() bool { return completions == 16 })
	if inj.Stats.DroppedTails.Load() == 0 {
		t.Fatal("plan dropped nothing; test exercises no recovery")
	}
	rs := h.ks.RecoveryStats()
	if rs.ReqTimeouts == 0 {
		t.Fatalf("16 completions despite %d drops but no request timeouts: %+v",
			inj.Stats.DroppedTails.Load(), rs)
	}
}

// TestRecoveryQuietOnHealthyRun: with recovery enabled but no faults,
// no recovery *action* may ever fire — no re-issued requests, no
// duplicate grants, no regrants, no stale failures. Sleep rechecks are
// exempt: a thread legitimately asleep for longer than the recheck
// interval re-validates its wait (like a real futex timed wait), and the
// controller's dedup makes that a no-op.
func TestRecoveryQuietOnHealthyRun(t *testing.T) {
	h, _ := newRecoveryHarness(t, true, true, fault.Plan{})
	const lock = 2
	completions := 0
	for n := 0; n < 16; n++ {
		th := n
		h.ks.Lock(0, th, lock, func(now uint64) {
			h.ks.delay.Schedule(now+30, func(u uint64) {
				h.ks.Unlock(u, th)
				completions++
			})
		})
	}
	h.run(t, 10_000_000, func() bool { return completions == 16 })
	rs := h.ks.RecoveryStats()
	if rs.ReqTimeouts != 0 || rs.DupGrants != 0 || rs.Regrants != 0 || rs.StaleFails != 0 || rs.StaleWakeups != 0 {
		t.Fatalf("recovery fired on a healthy run: %+v", rs)
	}
}

// TestConfigValidateKernel covers the typed validation errors.
func TestConfigValidateKernel(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Recovery.RequestTimeout == 0 || good.Recovery.SleepRecheck == 0 || good.Recovery.MaxBackoff == 0 {
		t.Fatalf("recovery defaults not filled: %+v", good.Recovery)
	}
	bad := []Config{
		{SpinInterval: -1},
		{SleepPrepLatency: -5},
		{WakeLatency: -1},
		{Recovery: RecoveryConfig{RequestTimeout: -1}},
		{Recovery: RecoveryConfig{MaxBackoff: 10, RequestTimeout: 100}},
	}
	for i, c := range bad {
		err := c.Validate()
		if err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
		if _, ok := err.(*ConfigError); !ok {
			t.Fatalf("case %d: error %T is not *ConfigError", i, err)
		}
	}
}
