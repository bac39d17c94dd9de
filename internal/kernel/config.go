// Package kernel models the OS-level critical-section machinery of the
// paper: the Linux 4.2 queue spinlock (a bounded spinning phase followed by
// a futex-based sleeping phase), the per-lock wait queue at the lock
// variable's home node, and the enhanced primitives of Algorithms 1 and 2
// that expose the Remaining Times of Retry (RTR) and thread progress (PROG)
// to the network interface.
//
// Lock operations travel over the NoC as single-flit packets: atomic
// try-lock requests and FUTEX_WAIT registrations to the home node, grants
// and failures back, an atomic release plus a FUTEX_WAKE from the releasing
// thread, and wake-up deliveries to sleeping threads. Under OCOR, locking
// requests carry the RTR-derived priority and FUTEX_WAKE packets the lowest
// priority ("Wakeup Request Last").
package kernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel/protocol"
)

// Config holds the queue-spinlock timing model and the OCOR policy.
type Config struct {
	// SpinInterval is the delay between spinning-phase retries in cycles
	// (the cpu_relax of Algorithm 1).
	SpinInterval int
	// SleepPrepLatency is the cost of preparing a thread for sleep
	// (context save, futex enqueue path) once the spin budget is gone.
	SleepPrepLatency int
	// WakeLatency is the cost of waking a slept thread (context restore).
	WakeLatency int
	// Policy is the OCOR configuration, including MaxSpin and the number
	// of priority levels. Policy.Enabled false gives the paper's baseline.
	Policy core.Policy
	// Protocol selects the lock algorithm ("" = the default queue
	// spinlock). See internal/kernel/protocol for the registry; the
	// default is byte-identical to the hard-wired baseline.
	Protocol string
	// MutableSpinBudget is the Mutable Locks protocol's initial adaptive
	// spin budget (0 = Policy.MaxSpin). Ignored by other protocols.
	MutableSpinBudget int
	// CNALocalCap bounds consecutive same-quadrant CNA handoffs before a
	// fairness flush to the global queue head (0 = default). Ignored by
	// other protocols.
	CNALocalCap int
	// Recovery configures the lock-liveness recovery machinery. Disabled
	// by default; when disabled the protocol is byte-identical to a build
	// without the recovery code.
	Recovery RecoveryConfig
}

// RecoveryConfig enables and tunes the kernel's lock-liveness recovery:
// the defenses that keep seeded packet loss and wakeup loss from
// deadlocking a run. Off by default. Enabling it changes timer
// scheduling order even when no fault ever fires, so recovered runs are
// deterministic but not byte-identical to recovery-off runs.
type RecoveryConfig struct {
	// Enabled turns recovery on.
	Enabled bool
	// RequestTimeout is the cycles a try-lock request may stay
	// unanswered before it is re-issued (default 4096 — far above any
	// healthy NoC round trip, so it never fires fault-free).
	RequestTimeout int
	// MaxBackoff caps the exponential backoff of both the request
	// timeout and the sleep recheck (default 65536).
	MaxBackoff int
	// SleepRecheck is the cycles a sleeping thread waits before
	// re-checking the futex word (re-sending FUTEX_WAIT), recovering
	// from a lost wakeup (default 8192).
	SleepRecheck int
}

// ConfigError is the typed validation error returned by Config.Validate.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("kernel: invalid config: %s: %s", e.Field, e.Reason)
}

// DefaultConfig returns the reproduction's default timing: the Linux 4.2
// spin budget of 128 retries and sleep/wake costs on the context-switch
// scale the paper's §2.2 describes as "both expensive operations".
func DefaultConfig() Config {
	return Config{
		SpinInterval:     12,
		SleepPrepLatency: 1200,
		WakeLatency:      2000,
		Policy:           core.BaselinePolicy(),
	}
}

// Validate normalises the configuration, filling unset fields with
// defaults, and returns a *ConfigError for irrecoverable settings.
func (c *Config) Validate() error {
	d := DefaultConfig()
	if c.SpinInterval < 0 {
		return &ConfigError{Field: "SpinInterval", Reason: fmt.Sprintf("negative interval %d", c.SpinInterval)}
	}
	if c.SpinInterval == 0 {
		c.SpinInterval = d.SpinInterval
	}
	if c.SleepPrepLatency < 0 {
		return &ConfigError{Field: "SleepPrepLatency", Reason: fmt.Sprintf("negative latency %d", c.SleepPrepLatency)}
	}
	if c.SleepPrepLatency == 0 {
		c.SleepPrepLatency = d.SleepPrepLatency
	}
	if c.WakeLatency < 0 {
		return &ConfigError{Field: "WakeLatency", Reason: fmt.Sprintf("negative latency %d", c.WakeLatency)}
	}
	if c.WakeLatency == 0 {
		c.WakeLatency = d.WakeLatency
	}
	if !protocol.Valid(c.Protocol) {
		return &ConfigError{Field: "Protocol",
			Reason: fmt.Sprintf("unknown lock protocol %q (known: %v)", c.Protocol, protocol.Known())}
	}
	if c.MutableSpinBudget < 0 {
		return &ConfigError{Field: "MutableSpinBudget",
			Reason: fmt.Sprintf("negative spin budget %d", c.MutableSpinBudget)}
	}
	if c.CNALocalCap < 0 {
		return &ConfigError{Field: "CNALocalCap",
			Reason: fmt.Sprintf("negative local cap %d", c.CNALocalCap)}
	}
	r := &c.Recovery
	if r.RequestTimeout < 0 || r.MaxBackoff < 0 || r.SleepRecheck < 0 {
		return &ConfigError{Field: "Recovery",
			Reason: fmt.Sprintf("negative interval (timeout %d, backoff cap %d, recheck %d)",
				r.RequestTimeout, r.MaxBackoff, r.SleepRecheck)}
	}
	if r.RequestTimeout == 0 {
		r.RequestTimeout = 4096
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = 65536
	}
	if r.SleepRecheck == 0 {
		r.SleepRecheck = 8192
	}
	if r.MaxBackoff < r.RequestTimeout || r.MaxBackoff < r.SleepRecheck {
		return &ConfigError{Field: "Recovery.MaxBackoff",
			Reason: fmt.Sprintf("cap %d below initial timeout %d / recheck %d",
				r.MaxBackoff, r.RequestTimeout, r.SleepRecheck)}
	}
	c.Policy = c.Policy.Validate()
	return nil
}

// LockHome maps a lock id to its home node (where the lock variable's
// cache block lives). A multiplicative hash spreads the lock variables
// across the L2 banks like block-interleaved addresses would.
func LockHome(lock, nodes int) int {
	h := uint64(lock) * 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(nodes))
}
