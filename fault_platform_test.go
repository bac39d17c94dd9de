package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// faultyConfig is detProfile under a seeded locking-class fault plan with
// recovery enabled — the standard degraded-but-survivable configuration
// of these tests.
func faultyConfig(ocor bool) Config {
	return Config{
		Benchmark: detProfile(), Threads: 16, OCOR: ocor, Seed: 7,
		Faults:   &fault.Plan{Seed: 41, DropRate: 0.02, DelayRate: 0.05, DelayCycles: 24},
		Recovery: &kernel.RecoveryConfig{Enabled: true},
	}
}

// sleepyKernel forces threads into the futex-sleep path quickly so
// wake-loss faults have something to swallow.
func sleepyKernel(ocor bool) *kernel.Config {
	kcfg := kernel.DefaultConfig()
	kcfg.Policy.MaxSpin = 2
	_ = ocor // Policy.Enabled is overwritten by the platform from Config.OCOR
	return &kcfg
}

// wakeLossConfig seeds the acceptance scenario at platform scale: every
// FUTEX_WAKE is swallowed (a single lost wake is often absorbed by the
// next unlock's wake at this contention depth, so total loss is what
// makes the deadlock deterministic in both lock modes), with spin
// budgets small enough that cohorts actually sleep.
func wakeLossConfig(ocor, recovery bool) Config {
	return Config{
		Benchmark: detProfile(), Threads: 16, OCOR: ocor, Seed: 7,
		Kernel:   sleepyKernel(ocor),
		Faults:   &fault.Plan{Seed: 41, WakeLossRate: 1},
		Recovery: &kernel.RecoveryConfig{Enabled: recovery},
	}
}

func runJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFaultMachineryInertWhenIdle is the platform half of the
// byte-identity guarantee: attaching the fault/watchdog machinery in a
// configuration where it never fires — an injector whose only event
// targets a lock the workload never touches, and a watchdog whose checks
// all pass — must leave the results byte-for-byte identical to a plain
// run. (Recovery is exercised separately: arming its timers schedules
// engine events, so only the disabled default is identity-preserving.)
func TestFaultMachineryInertWhenIdle(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		base := Config{Benchmark: detProfile(), Threads: 16, OCOR: ocor, Seed: 7}
		ref := runJSON(t, base)

		inert := base
		inert.Faults = &fault.Plan{Events: []fault.Event{
			{Kind: fault.KindWakeLoss, Lock: 63, Nth: 0}, // lock 63 is never used
		}}
		if got := runJSON(t, inert); !bytes.Equal(ref, got) {
			t.Fatalf("ocor=%v: idle injector perturbed results:\nref: %s\ngot: %s", ocor, ref, got)
		}

		watched := base
		watched.Watchdog = &sim.WatchdogConfig{}
		if got := runJSON(t, watched); !bytes.Equal(ref, got) {
			t.Fatalf("ocor=%v: passing watchdog perturbed results:\nref: %s\ngot: %s", ocor, ref, got)
		}
	}
}

// TestFaultMatrix runs the degraded configuration with OCOR off and on
// and requires every cell to be reproducible: identical JSON on
// repetition. Fault injection must be as deterministic as the fault-free
// simulator.
func TestFaultMatrix(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		ref := runJSON(t, faultyConfig(ocor))
		if got := runJSON(t, faultyConfig(ocor)); !bytes.Equal(ref, got) {
			t.Fatalf("ocor=%v: faulted run not reproducible:\nref: %s\ngot: %s", ocor, ref, got)
		}
	}
}

// TestFaultDelayDigestPinned pins the results of the degraded
// configuration — flit drops and delays on the lock classes, recovery on
// — to SHA-256 digests of their JSON. A delayed flit must hold back the
// flits behind it on its link, and the reproducibility tests above
// compare a run only with itself, so a change that let later flits
// overtake a delayed one would pass them; it moves these digests.
func TestFaultDelayDigestPinned(t *testing.T) {
	for ocor, want := range map[bool]string{
		false: "c4507ae0d68823fd6c9429dd6137963b9585fbfc6a21a305d17f1002a5ec179d",
		true:  "95e24956541a82151d0937aad61479941fafb0bee79cb6259b3139072d9e1aa1",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(runJSON(t, faultyConfig(ocor)))); got != want {
			t.Errorf("ocor=%v: results sha256 %s, want %s", ocor, got, want)
		}
	}
}

// TestWatchdogCatchesWakeLossDeadlock is the acceptance scenario end to
// end: a seeded FUTEX_WAKE loss with recovery off deadlocks the
// platform, and the watchdog must detect it within a bounded cycle
// budget and return a typed error carrying a diagnostic dump — long
// before the MaxCycles guard would have fired.
func TestWatchdogCatchesWakeLossDeadlock(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		cfg := wakeLossConfig(ocor, false)
		cfg.Watchdog = &sim.WatchdogConfig{
			Interval:    2_000,
			StallBudget: 200_000,
			BlockBudget: 400_000,
		}
		cfg.MaxCycles = 50_000_000
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.Run()
		var werr *sim.WatchdogError
		if !errors.As(err, &werr) {
			t.Fatalf("ocor=%v: Run returned %v, want *sim.WatchdogError", ocor, err)
		}
		// Detection must be bounded: the healthy workload finishes in well
		// under a million cycles, so budget + slack bounds the trip point.
		if werr.Cycle > 5_000_000 {
			t.Fatalf("ocor=%v: watchdog tripped only at cycle %d", ocor, werr.Cycle)
		}
		if werr.Dump == "" {
			t.Fatalf("ocor=%v: watchdog error carries no diagnostic dump", ocor)
		}
		if !strings.Contains(werr.Dump, "threads in lock path") ||
			!strings.Contains(werr.Dump, "recovery:") {
			t.Fatalf("ocor=%v: dump missing expected sections:\n%s", ocor, werr.Dump)
		}
		if sys.Faults.Stats.DroppedWakes.Load() == 0 {
			t.Fatalf("ocor=%v: no wakes dropped; scenario exercised nothing", ocor)
		}
	}
}

// TestRecoveryCompletesWakeLossRun is the positive half: the same seeded
// wake loss with recovery enabled completes (the sleeping threads' futex
// rechecks re-validate their waits), with or without the watchdog armed.
func TestRecoveryCompletesWakeLossRun(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		cfg := wakeLossConfig(ocor, true)
		cfg.Watchdog = &sim.WatchdogConfig{}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("ocor=%v: recovery-enabled run failed: %v", ocor, err)
		}
		if sys.Faults.Stats.DroppedWakes.Load() == 0 {
			t.Fatalf("ocor=%v: no wakes dropped; scenario exercised nothing", ocor)
		}
		if rs := sys.Kernel.RecoveryStats(); rs.SleepRechecks == 0 {
			t.Fatalf("ocor=%v: completion without any sleep recheck: %+v", ocor, rs)
		}
	}
}

// TestRunWithTimeout aborts a deadlocked run (no watchdog, no recovery)
// at a wall-clock deadline instead of burning the MaxCycles budget.
func TestRunWithTimeout(t *testing.T) {
	cfg := wakeLossConfig(true, false)
	cfg.MaxCycles = 2_000_000_000 // far beyond any reasonable wall-clock budget
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.RunWithTimeout(200 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "abort") {
		t.Fatalf("RunWithTimeout returned %v, want wall-clock abort", err)
	}

	// A healthy run under a generous deadline is unaffected.
	ok, err := New(Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok.RunWithTimeout(5 * time.Minute); err != nil {
		t.Fatalf("healthy run under timeout failed: %v", err)
	}
}
