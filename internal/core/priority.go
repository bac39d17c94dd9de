// Package core implements the paper's primary contribution: the OCOR
// (Opportunistic Competition Overhead Reduction) priority mechanism.
//
// It defines the priority word carried in the header of locking-request and
// wakeup packets (priority check bit, one-hot RTR class bits, progress
// bits), the mapping from a thread's Remaining Times of Retry (RTR) to a
// priority class, and the comparison rules of Table 1 that NoC routers use
// for priority-based virtual-channel and switch allocation.
package core

import "fmt"

// MaxSpinCount is the number of spinning-phase retries of the queue
// spinlock before a thread falls back to the sleeping phase; the paper uses
// the Linux 4.2 value of 128.
const MaxSpinCount = 128

// DefaultLockLevels is the paper's default number of priority levels for
// locking requests in the spinning phase (plus one extra lowest level for
// wakeup requests, giving 9 one-hot bits in total).
const DefaultLockLevels = 8

// MaxLockLevels is the most locking-request priority levels a policy
// supports: Policy.Validate clamps LockLevels to it, and the platform
// configuration rejects more, so no run is labelled with a level count it
// did not simulate.
const MaxLockLevels = 64

// WakeupClass is the class index reserved for wakeup requests: the lowest
// priority level ("Wakeup Request Last", rule 4 of Table 1).
const WakeupClass = 0

// Priority is the additional header carried by packets under OCOR.
//
// Check is the priority check bit: it distinguishes locking/wakeup request
// packets (true) from normal data and cache-coherence packets (false). Only
// when Check is set do routers inspect Class and Prog.
//
// Class is the priority level derived from the RTR value (or WakeupClass
// for wakeup requests). Higher class = higher priority. With L lock levels
// the valid classes are 1..L for locking requests and 0 for wakeups; the
// one-hot encoding therefore needs L+1 bits.
//
// Prog is the progress segment of the issuing thread (number of completed
// critical sections, quantised like RTR). Smaller Prog = slower thread =
// higher priority ("Slow Progress First", rule 1).
type Priority struct {
	Check bool
	Class uint8
	Prog  uint16
}

// Normal is the priority carried by data and coherence packets.
var Normal = Priority{}

// OneHot returns the one-hot encoding of the priority class as the hardware
// would carry it: bit (Class) set, so wakeups map to bit 0 and the highest
// lock level to bit L. Packets without the check bit return 0.
func (p Priority) OneHot() uint32 {
	if !p.Check {
		return 0
	}
	return 1 << p.Class
}

// String renders the priority for traces and tests.
func (p Priority) String() string {
	if !p.Check {
		return "normal"
	}
	if p.Class == WakeupClass {
		return fmt.Sprintf("wakeup(prog=%d)", p.Prog)
	}
	return fmt.Sprintf("lock(class=%d,prog=%d)", p.Class, p.Prog)
}

// Policy captures the configurable parameters of the OCOR mechanism.
type Policy struct {
	// Enabled turns the whole mechanism on. When false the system behaves
	// as the paper's baseline: unmodified queue spinlock and round-robin
	// router arbitration.
	Enabled bool
	// LockLevels is the number of priority levels for spinning-phase
	// locking requests (paper default 8; Fig. 16 sweeps it).
	LockLevels int
	// MaxSpin is the spinning-phase retry budget (paper: 128).
	MaxSpin int
	// ProgSegments quantises the progress counter into this many one-hot
	// segments (the paper applies "the same principle" as for RTR).
	ProgSegments int
	// ProgSpan is the progress range covered by the segments; progress
	// values at or beyond it saturate in the last (fastest) segment.
	ProgSpan int

	// Ablation toggles: disable individual Table 1 rules to measure their
	// contribution. Each toggle changes how priorities are *encoded* (the
	// comparator stays fixed, as the hardware's would):
	//
	//   - DisableSlowProgressFirst encodes every packet with progress
	//     segment 0, neutralising rule 1.
	//   - DisableLockFirst clears the priority check bit, so locking
	//     traffic competes like normal traffic (neutralises rule 2 and,
	//     transitively, rules 3 and 4).
	//   - DisableLeastRTRFirst encodes every locking request with the
	//     base class, neutralising rule 3.
	//   - DisableWakeupLast encodes wakeup requests with the base locking
	//     class instead of the dedicated lowest level, so they compete
	//     like fresh locking requests (neutralises rule 4).
	DisableSlowProgressFirst bool
	DisableLockFirst         bool
	DisableLeastRTRFirst     bool
	DisableWakeupLast        bool
}

// DefaultPolicy returns the paper's default configuration with OCOR
// enabled.
func DefaultPolicy() Policy {
	return Policy{
		Enabled:      true,
		LockLevels:   DefaultLockLevels,
		MaxSpin:      MaxSpinCount,
		ProgSegments: 8,
		ProgSpan:     128,
	}
}

// BaselinePolicy returns the unmodified-queue-spinlock configuration.
func BaselinePolicy() Policy {
	p := DefaultPolicy()
	p.Enabled = false
	return p
}

// Validate normalises out-of-range fields to sane values and returns the
// policy, so that zero-ish configurations still run.
func (pl Policy) Validate() Policy {
	if pl.LockLevels < 1 {
		pl.LockLevels = 1
	}
	if pl.LockLevels > MaxLockLevels {
		pl.LockLevels = MaxLockLevels
	}
	if pl.MaxSpin < 1 {
		pl.MaxSpin = 1
	}
	if pl.ProgSegments < 1 {
		pl.ProgSegments = 1
	}
	if pl.ProgSpan < pl.ProgSegments {
		pl.ProgSpan = pl.ProgSegments
	}
	return pl
}

// LockClass maps an RTR value (remaining times of retry, 1..MaxSpin) to a
// priority class in 1..LockLevels. The spin time-span is divided into
// LockLevels equal segments; the smaller the RTR — i.e. the sooner the
// thread will be forced into the expensive sleeping phase — the higher the
// class ("Least RTR First", rule 3). RTR values of 0 or below (already out
// of retries) map to the highest class.
func (pl Policy) LockClass(rtr int) uint8 {
	if rtr < 1 {
		return uint8(pl.LockLevels)
	}
	if rtr > pl.MaxSpin {
		rtr = pl.MaxSpin
	}
	seg := (rtr - 1) * pl.LockLevels / pl.MaxSpin // 0 (smallest RTR) .. L-1
	return uint8(pl.LockLevels - seg)             // L (highest) .. 1
}

// ProgSegment quantises a raw progress counter into its one-hot segment.
// Smaller values mean slower progress.
func (pl Policy) ProgSegment(prog int) uint16 {
	if prog < 0 {
		prog = 0
	}
	if prog >= pl.ProgSpan {
		return uint16(pl.ProgSegments - 1)
	}
	return uint16(prog * pl.ProgSegments / pl.ProgSpan)
}

// LockPriority builds the priority word for a spinning-phase locking
// request with the given RTR and raw progress counter.
func (pl Policy) LockPriority(rtr, prog int) Priority {
	if pl.DisableLockFirst {
		return Normal
	}
	class := pl.LockClass(rtr)
	if pl.DisableLeastRTRFirst {
		class = 1
	}
	return Priority{Check: true, Class: class, Prog: pl.progOrZero(prog)}
}

// WakeupPriority builds the priority word for a FUTEX_WAKE wakeup request.
func (pl Policy) WakeupPriority(prog int) Priority {
	if pl.DisableLockFirst {
		return Normal
	}
	class := uint8(WakeupClass)
	if pl.DisableWakeupLast {
		class = 1 // compete like a fresh locking request
	}
	return Priority{Check: true, Class: class, Prog: pl.progOrZero(prog)}
}

// progOrZero applies the rule 1 ablation.
func (pl Policy) progOrZero(prog int) uint16 {
	if pl.DisableSlowProgressFirst {
		return 0
	}
	return pl.ProgSegment(prog)
}

// Compare orders two priority words per Table 1. It returns > 0 when a has
// strictly higher priority than b, < 0 when lower and 0 when the rules
// cannot distinguish them (the router then falls back to round-robin /
// FIFO order).
//
// Rule order:
//  1. Slow Progress First  — smaller Prog wins (only among check packets;
//     normal packets carry no progress).
//  2. Locking Request Packet First — check packets beat normal packets.
//  3. Least RTR First      — higher Class wins.
//  4. Wakeup Request Last  — implied by WakeupClass being the lowest class.
func Compare(a, b Priority) int {
	// Rule 2: lock/wakeup requests before normal traffic.
	switch {
	case a.Check && !b.Check:
		return 1
	case !a.Check && b.Check:
		return -1
	case !a.Check && !b.Check:
		return 0
	}
	// Rule 1: among request packets, slower progress first.
	if a.Prog != b.Prog {
		if a.Prog < b.Prog {
			return 1
		}
		return -1
	}
	// Rules 3 and 4: higher class first; wakeup (class 0) last.
	switch {
	case a.Class > b.Class:
		return 1
	case a.Class < b.Class:
		return -1
	}
	return 0
}

// Key flattens the priority word into a single uint32 whose natural
// integer order is exactly the Table 1 order: Compare(a, b) and
// a.Key() <=> b.Key() always agree, including equality (a property test
// pins this). Routers cache the key of each buffered head flit so the
// per-cycle VA/SA scans compare one integer instead of re-walking the
// rule chain through a packet pointer.
//
// Layout (most significant first): bit 24 = Check, bits 8-23 = ^Prog
// (smaller progress must order higher), bits 0-7 = Class. Normal packets
// map to 0 regardless of their (unused) Class/Prog fields, mirroring
// Compare's rule 2 short-circuit.
func (p Priority) Key() uint32 {
	if !p.Check {
		return 0
	}
	return 1<<24 | uint32(^p.Prog)<<8 | uint32(p.Class)
}

// Max returns the higher-priority of two words (a on ties).
func Max(a, b Priority) Priority {
	if Compare(a, b) < 0 {
		return b
	}
	return a
}
