package kernel

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/sim"
)

type harness struct {
	e   *sim.Engine
	net *noc.Network
	ks  *System
}

func newHarness(t testing.TB, w, h int, ocor bool) *harness {
	t.Helper()
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = w, h
	ncfg.Priority = ocor
	net, err := noc.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := DefaultConfig()
	// Short timings keep tests fast while preserving the ordering
	// sleep-prep/wake >> spin interval.
	kcfg.SpinInterval = 10
	kcfg.SleepPrepLatency = 200
	kcfg.WakeLatency = 300
	if ocor {
		kcfg.Policy = core.DefaultPolicy()
	} else {
		kcfg.Policy = core.BaselinePolicy()
	}
	kcfg.Policy.MaxSpin = 8 // small spin budget so tests exercise sleeping
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
	return &harness{e: e, net: net, ks: ks}
}

func (h *harness) run(t testing.TB, maxCycles uint64, done func() bool) {
	t.Helper()
	h.e.MaxCycles = h.e.Now() + maxCycles
	h.e.RunUntil(done)
	if !done() {
		t.Fatalf("condition not reached in %d cycles", maxCycles)
	}
	h.e.MaxCycles = 0
}

func TestUncontendedLock(t *testing.T) {
	h := newHarness(t, 4, 4, false)
	var got *AcquireEvent
	h.ks.SetListener(listenerFunc(func(ev AcquireEvent) { got = &ev }))
	acquired := false
	h.ks.Lock(0, 0, 7, func(now uint64) { acquired = true })
	h.run(t, 10000, func() bool { return acquired })
	if got == nil {
		t.Fatal("no acquire event")
	}
	if !got.SpinPhase {
		t.Fatal("uncontended acquisition should be in the spinning phase")
	}
	if got.Retries != 1 {
		t.Fatalf("retries = %d, want 1", got.Retries)
	}
	if got.COH != got.BT {
		t.Fatalf("uncontended COH %d should equal BT %d (nobody held the lock)", got.COH, got.BT)
	}
	held, holder := h.ks.Controllers[LockHome(7, 16)].Held(7)
	if !held || holder != 0 {
		t.Fatalf("lock not held by 0: %v %d", held, holder)
	}
	h.ks.Unlock(h.e.Now(), 0)
	h.run(t, 10000, func() bool {
		held, _ := h.ks.Controllers[LockHome(7, 16)].Held(7)
		return !held && h.ks.Pending() == 0 && !h.net.Busy()
	})
	if h.ks.client(0).Prog() != 1 {
		t.Fatalf("prog = %d, want 1", h.ks.client(0).Prog())
	}
}

func TestTwoThreadsMutualExclusion(t *testing.T) {
	h := newHarness(t, 4, 4, false)
	const lock = 3
	inCS := 0
	maxInCS := 0
	completions := 0
	enter := func(thread int) func(uint64) {
		return func(now uint64) {
			inCS++
			if inCS > maxInCS {
				maxInCS = inCS
			}
			// Hold for 50 cycles, then release.
			th := thread
			h.ks.delay.Schedule(now+50, func(t uint64) {
				inCS--
				h.ks.Unlock(t, th)
				completions++
			})
		}
	}
	for n := 0; n < 8; n++ {
		h.ks.Lock(0, n, lock, enter(n))
	}
	h.run(t, 2000000, func() bool { return completions == 8 })
	if maxInCS != 1 {
		t.Fatalf("mutual exclusion violated: %d threads in CS", maxInCS)
	}
}

func TestSleepAndWake(t *testing.T) {
	h := newHarness(t, 4, 4, false)
	const lock = 5
	// Thread 0 grabs the lock and holds it long enough to force thread 1
	// past its spin budget (8 retries x 10 cycles).
	acquired0 := false
	h.ks.Lock(0, 0, lock, func(now uint64) { acquired0 = true })
	h.run(t, 10000, func() bool { return acquired0 })

	var ev1 *AcquireEvent
	h.ks.SetListener(listenerFunc(func(ev AcquireEvent) {
		if ev.Thread == 1 {
			ev1 = &ev
		}
	}))
	acquired1 := false
	h.ks.Lock(h.e.Now(), 1, lock, func(now uint64) { acquired1 = true })
	// Wait until thread 1 is asleep.
	h.run(t, 100000, func() bool { return h.ks.client(1).State() == StateSleeping })
	if h.ks.Controllers[LockHome(lock, 16)].Sleepers(lock) != 1 {
		t.Fatal("thread 1 not in wait queue")
	}
	// Release: the FUTEX_WAKE must wake thread 1, which then acquires.
	h.ks.Unlock(h.e.Now(), 0)
	h.run(t, 100000, func() bool { return acquired1 })
	if ev1 == nil {
		t.Fatal("no acquire event for thread 1")
	}
	if ev1.SpinPhase {
		t.Fatal("thread 1 must have reached the sleeping phase")
	}
	if ev1.Sleeps < 1 {
		t.Fatalf("sleeps = %d", ev1.Sleeps)
	}
	// The sleep/wake overhead dominates its COH.
	if ev1.COH < uint64(h.ks.Cfg.SleepPrepLatency) {
		t.Fatalf("COH %d should include sleep overhead", ev1.COH)
	}
}

func TestCOHDecomposition(t *testing.T) {
	// With a known hold time, HeldByOthers must reflect it.
	h := newHarness(t, 4, 4, false)
	const lock = 9
	acquired0 := false
	h.ks.Lock(0, 0, lock, func(now uint64) { acquired0 = true })
	h.run(t, 10000, func() bool { return acquired0 })

	var ev *AcquireEvent
	h.ks.SetListener(listenerFunc(func(e AcquireEvent) { ev = &e }))
	h.ks.Lock(h.e.Now(), 1, lock, nil)
	// Hold for 300 more cycles, then release.
	release := h.e.Now() + 300
	h.e.MaxCycles = h.e.Now() + 1000000
	h.e.RunUntil(func() bool { return h.e.Now() >= release })
	h.ks.Unlock(h.e.Now(), 0)
	h.run(t, 1000000, func() bool { return ev != nil })
	if ev.HeldByOthers == 0 {
		t.Fatal("HeldByOthers = 0; decomposition broken")
	}
	if ev.COH+ev.HeldByOthers != ev.BT {
		t.Fatalf("BT %d != COH %d + held %d", ev.BT, ev.COH, ev.HeldByOthers)
	}
	if ev.HeldByOthers > ev.BT {
		t.Fatal("held exceeds blocking time")
	}
}

func TestProgressCounting(t *testing.T) {
	h := newHarness(t, 4, 4, false)
	done := 0
	var lockLoop func(now uint64)
	count := 0
	lockLoop = func(now uint64) {
		h.ks.Lock(now, 2, 11, func(t uint64) {
			h.ks.delay.Schedule(t+20, func(u uint64) {
				h.ks.Unlock(u, 2)
				count++
				if count < 5 {
					lockLoop(u)
				} else {
					done = 1
				}
			})
		})
	}
	lockLoop(0)
	h.run(t, 1000000, func() bool { return done == 1 })
	if p := h.ks.client(2).Prog(); p != 5 {
		t.Fatalf("prog = %d, want 5", p)
	}
}

func TestLockHomeDistribution(t *testing.T) {
	seen := map[int]bool{}
	for l := 0; l < 256; l++ {
		home := LockHome(l, 64)
		if home < 0 || home >= 64 {
			t.Fatalf("home %d out of range", home)
		}
		seen[home] = true
	}
	if len(seen) < 32 {
		t.Fatalf("locks poorly distributed: only %d homes", len(seen))
	}
	if LockHome(42, 64) != LockHome(42, 64) {
		t.Fatal("home not deterministic")
	}
}

func TestImmediateWakeOnFreeLock(t *testing.T) {
	// A FUTEX_WAIT that reaches a free lock must bounce back immediately
	// (futex re-check), so the thread is not lost asleep.
	h := newHarness(t, 2, 2, false)
	const lock = 1
	acq0 := false
	h.ks.Lock(0, 0, lock, func(uint64) { acq0 = true })
	h.run(t, 10000, func() bool { return acq0 })
	acq1 := false
	h.ks.Lock(h.e.Now(), 1, lock, func(uint64) { acq1 = true })
	// Let thread 1 burn its spin budget and send FUTEX_WAIT, releasing
	// just before it arrives.
	h.run(t, 100000, func() bool {
		return h.ks.client(1).State() == StateSleepPrep || h.ks.client(1).State() == StateSleeping
	})
	h.ks.Unlock(h.e.Now(), 0)
	h.run(t, 1000000, func() bool { return acq1 })
	if h.ks.Pending() != 0 {
		h.run(t, 1000000, func() bool { return h.ks.Pending() == 0 && !h.net.Busy() })
	}
}

func TestManyThreadsOneLockAllComplete(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		h := newHarness(t, 4, 4, ocor)
		const lock = 2
		completions := 0
		for n := 0; n < 16; n++ {
			th := n
			h.ks.Lock(0, th, lock, func(now uint64) {
				h.ks.delay.Schedule(now+30, func(t uint64) {
					h.ks.Unlock(t, th)
					completions++
				})
			})
		}
		h.run(t, 10000000, func() bool { return completions == 16 })
		// Progress must be recorded for every thread.
		total := 0
		for _, c := range h.ks.clients {
			if c != nil {
				total += c.Prog()
			}
		}
		if total != 16 {
			t.Fatalf("ocor=%v total prog = %d, want 16", ocor, total)
		}
	}
}

func TestOCORPrioritizesLowRTR(t *testing.T) {
	// Verify the priority computation end to end: a client deep into its
	// spin budget stamps higher-priority packets.
	pol := core.DefaultPolicy()
	early := pol.LockPriority(128, 0) // just started spinning
	late := pol.LockPriority(3, 0)    // about to sleep
	if core.Compare(late, early) <= 0 {
		t.Fatal("late-spin packet must outrank early-spin packet")
	}
	wake := pol.WakeupPriority(0)
	if core.Compare(early, wake) <= 0 {
		t.Fatal("any spinning lock packet must outrank a wakeup")
	}
}

func TestStatsAccumulation(t *testing.T) {
	h := newHarness(t, 4, 4, false)
	acq := false
	h.ks.Lock(0, 0, 4, func(uint64) { acq = true })
	h.run(t, 10000, func() bool { return acq })
	ctl := h.ks.Controllers[LockHome(4, 16)]
	if ctl.Stats.TryLocks != 1 || ctl.Stats.Grants != 1 {
		t.Fatalf("controller stats: %+v", ctl.Stats)
	}
	if h.ks.client(0).Acquisitions != 1 || h.ks.client(0).SpinAcquires != 1 {
		t.Fatal("client stats not updated")
	}
}

// listenerFunc adapts a closure to the Listener interface.
type listenerFunc func(AcquireEvent)

func (f listenerFunc) Acquired(ev AcquireEvent) { f(ev) }

// BenchmarkLockHandoffs measures lock-protocol throughput: a contended
// chain of acquisitions over the NoC.
func BenchmarkLockHandoffs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness(b, 4, 4, true)
		const lock = 1
		completions := 0
		for n := 0; n < 16; n++ {
			th := n
			h.ks.Lock(0, th, lock, func(now uint64) {
				h.ks.delay.Schedule(now+30, func(t uint64) {
					h.ks.Unlock(t, th)
					completions++
				})
			})
		}
		h.e.MaxCycles = 1 << 24
		h.e.RunUntil(func() bool { return completions == 16 })
		if completions != 16 {
			b.Fatal("handoff chain stalled")
		}
	}
}

func TestLockStats(t *testing.T) {
	h := newHarness(t, 4, 4, false)
	acq := false
	h.ks.Lock(0, 0, 4, func(uint64) { acq = true })
	h.run(t, 10000, func() bool { return acq })
	h.ks.Lock(h.e.Now(), 1, 4, nil) // contender fails and polls
	h.run(t, 10000, func() bool {
		st := h.ks.LockStats(h.e.Now())
		return len(st) == 1 && st[0].FailedTries > 0
	})
	st := h.ks.LockStats(h.e.Now())
	if len(st) != 1 {
		t.Fatalf("locks = %d", len(st))
	}
	if st[0].Lock != 4 || st[0].Acquisitions != 1 || st[0].HeldCycles == 0 {
		t.Fatalf("stat = %+v", st[0])
	}
	if st[0].Home != LockHome(4, 16) {
		t.Fatalf("home = %d", st[0].Home)
	}
}

// TestRestoreBuildsOnlyUsedClients checks the checkpoint side of building
// lock clients on first use: a snapshot writes a never-used client as a
// fresh one's record, and a restore builds only the clients whose records
// differ, so the round trip leaves unused nodes without a client and
// re-encodes to the same bytes.
func TestRestoreBuildsOnlyUsedClients(t *testing.T) {
	h := newHarness(t, 4, 4, true)
	acquired := false
	h.ks.Lock(0, 5, 7, func(uint64) { acquired = true })
	h.run(t, 10000, func() bool { return acquired })
	h.ks.Unlock(h.e.Now(), 5)
	h.run(t, 10000, func() bool { return !h.net.Busy() && h.ks.Pending() == 0 })
	encode := func(s *System) []byte {
		w := checkpoint.NewWriter()
		if err := s.SnapshotTo(w); err != nil {
			t.Fatal(err)
		}
		return w.Snapshot().Data
	}
	data := encode(h.ks)
	fresh := newHarness(t, 4, 4, true)
	snap := &checkpoint.Snapshot{Version: checkpoint.Version, Data: data}
	if err := fresh.ks.RestoreFrom(checkpoint.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	var built []int
	for n, c := range fresh.ks.clients {
		if c != nil {
			built = append(built, n)
		}
	}
	if !reflect.DeepEqual(built, []int{5}) {
		t.Fatalf("restore built clients on nodes %v, want [5]", built)
	}
	if !bytes.Equal(encode(fresh.ks), data) {
		t.Fatal("restored kernel re-encodes to different bytes")
	}
}
