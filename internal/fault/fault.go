// Package fault provides deterministic, seeded fault injection for the
// simulated platform. A Plan describes which faults to inject — flit
// drop/duplicate/delay on NoC links, router freezes, FUTEX_WAKE loss in
// the kernel futex path, and priority-bit corruption in locking-request
// headers — either as rates (hashed per event identity, so the same plan
// always hits the same packets regardless of worker count or engine
// mode) or as scripted one-shot events.
//
// The consuming layers (internal/noc, internal/kernel) hold a *Injector
// pointer that is nil by default; every injection point is a nil check,
// so a run without faults is byte-identical to a build without this
// package (the same zero-cost pattern as internal/obs).
//
// Determinism: rate-based decisions are pure functions of (plan seed,
// stable event identity) — e.g. a flit's fate on a link depends only on
// its packet ID and the link ID, never on arrival order or wall clock.
// All flits of one packet therefore share one fate at a given link: a
// "drop" removes the whole packet atomically rather than leaving a
// truncated flit train in the network. Router freezes hash the cycle
// epoch, so they do not depend on the order routers tick in either.
package fault

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// Action is the fate assigned to a flit crossing a link.
type Action uint8

const (
	// Deliver passes the flit through unmodified.
	Deliver Action = iota
	// Drop discards the flit (and, because fate is per packet+link,
	// every other flit of the same packet on that link).
	Drop
	// Dup delivers the flit and a duplicate copy in the same cycle.
	Dup
	// Delay delivers the flit DelayCycles later than scheduled.
	Delay
)

// Kind identifies a scripted fault event.
type Kind uint8

const (
	// KindDrop drops the flit arriving on Link at cycle At.
	KindDrop Kind = iota
	// KindDup duplicates the flit arriving on Link at cycle At.
	KindDup
	// KindDelay delays the flit arriving on Link at cycle At.
	KindDelay
	// KindFreeze freezes Router for Span cycles starting at At.
	KindFreeze
	// KindWakeLoss swallows the Nth FUTEX_WAKE (0-based) for Lock.
	KindWakeLoss
)

// Event is one scripted fault. Rate-based plans usually need no events;
// scripted events exist so tests can hit an exact flit, router window,
// or wakeup.
type Event struct {
	Kind   Kind
	At     uint64 // arrival cycle (flit kinds) or window start (freeze)
	Link   int32  // link id (flit kinds); see noc.SetFaults for the id scheme
	Router int32  // router id (freeze)
	Span   uint64 // freeze window length in cycles
	Lock   int32  // lock id (wake loss)
	Nth    uint32 // 0-based wake ordinal for Lock (wake loss)
}

// Plan is a declarative, seed-reproducible fault configuration. The zero
// Plan injects nothing. Rates are probabilities in [0, 1]; the flit
// rates (Drop+Dup+Delay) must sum to at most 1 because they partition
// one hash draw.
type Plan struct {
	Seed uint64

	DropRate  float64 // P(whole packet dropped at each link crossing)
	DupRate   float64 // P(every flit of the packet duplicated at the link)
	DelayRate float64 // P(every flit of the packet delayed at the link)

	// DelayCycles is the extra latency a delayed flit suffers
	// (default 16, at most MaxDelayCycles).
	DelayCycles uint64

	// FreezeRate is the probability that a router is frozen for any
	// given FreezeCycles-aligned epoch; FreezeCycles (default 1024) is
	// rounded up to a power of two.
	FreezeRate   float64
	FreezeCycles uint64

	// WakeLossRate is the probability that a FUTEX_WAKE hand-off is
	// swallowed (the lock becomes free but the chosen sleeper is never
	// woken — the classic lost-wakeup liveness hazard).
	WakeLossRate float64

	// CorruptRate is the probability that the RTR/PROG priority bits of
	// a locking-request header are overwritten with hash garbage.
	CorruptRate float64

	// ClassMask selects which packet classes (bit i = noc class i) the
	// flit faults apply to. Zero means "consumer default": noc.SetFaults
	// restricts faults to the locking-protocol classes so control
	// messages with no recovery path stay reliable.
	ClassMask uint16

	// Events are scripted one-shot faults applied in addition to the
	// rates.
	Events []Event
}

// MaxDelayCycles bounds Plan.DelayCycles. The network's event wheel spans
// the longest link flight plus the delay, so the bound keeps a plan from
// sizing it out of memory.
const MaxDelayCycles = 4096

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.DropRate > 0 || p.DupRate > 0 || p.DelayRate > 0 ||
		p.FreezeRate > 0 || p.WakeLossRate > 0 || p.CorruptRate > 0 ||
		len(p.Events) > 0
}

// Validate checks the plan's rates and scripted events.
func (p *Plan) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("fault: %s %v outside [0, 1]", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DropRate", p.DropRate}, {"DupRate", p.DupRate},
		{"DelayRate", p.DelayRate}, {"FreezeRate", p.FreezeRate},
		{"WakeLossRate", p.WakeLossRate}, {"CorruptRate", p.CorruptRate},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if s := p.DropRate + p.DupRate + p.DelayRate; s > 1 {
		return fmt.Errorf("fault: DropRate+DupRate+DelayRate = %v exceeds 1", s)
	}
	if p.DelayCycles > MaxDelayCycles {
		return fmt.Errorf("fault: DelayCycles %d exceeds %d", p.DelayCycles, MaxDelayCycles)
	}
	for i, ev := range p.Events {
		switch ev.Kind {
		case KindDrop, KindDup, KindDelay:
			if ev.Link < 0 {
				return fmt.Errorf("fault: event %d: negative link id", i)
			}
		case KindFreeze:
			if ev.Router < 0 {
				return fmt.Errorf("fault: event %d: negative router id", i)
			}
			if ev.Span == 0 {
				return fmt.Errorf("fault: event %d: freeze with zero span", i)
			}
		case KindWakeLoss:
			if ev.Lock < 0 {
				return fmt.Errorf("fault: event %d: negative lock id", i)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// Stats counts injected faults. All counters are updated atomically, so a
// reporter may read them while the simulation goroutine runs.
type Stats struct {
	DroppedFlits   atomic.Uint64
	DroppedTails   atomic.Uint64 // == whole packets removed from the network
	DupFlits       atomic.Uint64
	DelayedFlits   atomic.Uint64
	FrozenTicks    atomic.Uint64
	DroppedWakes   atomic.Uint64
	CorruptedPrios atomic.Uint64
}

// Snapshot is a plain-value copy of Stats for reporting.
type Snapshot struct {
	DroppedFlits   uint64 `json:"dropped_flits"`
	DroppedTails   uint64 `json:"dropped_packets"`
	DupFlits       uint64 `json:"dup_flits"`
	DelayedFlits   uint64 `json:"delayed_flits"`
	FrozenTicks    uint64 `json:"frozen_ticks"`
	DroppedWakes   uint64 `json:"dropped_wakes"`
	CorruptedPrios uint64 `json:"corrupted_prios"`
}

// flitKey addresses a scripted flit event: the flit arriving on Link at
// cycle At. Link senders emit at most one flit per link per cycle, so
// the key is unambiguous.
type flitKey struct {
	link int32
	at   uint64
}

type freezeWin struct {
	from, to uint64 // [from, to)
}

type wakeKey struct {
	lock int32
	nth  uint32
}

// Injector is the runtime form of a Plan: precomputed hash thresholds
// and scripted-event indexes. Decision methods are pure reads (except
// the atomic stat bumps and the wake counter), so their answers do not
// depend on the order they are asked in.
type Injector struct {
	plan Plan

	classMask uint16

	// Cumulative thresholds partitioning one 64-bit hash draw:
	// h < dropThr → Drop, else h < dupThr → Dup, else h < delayThr →
	// Delay, else Deliver.
	dropThr, dupThr, delayThr uint64

	freezeThr  uint64
	epochShift uint // log2 of the freeze epoch length

	wakeThr    uint64
	corruptThr uint64

	delayCycles uint64

	flitEvents map[flitKey]Kind
	freezes    map[int32][]freezeWin
	wakeEvents map[wakeKey]struct{}

	// wakeSeq counts FUTEX_WAKE hand-offs per lock. Only the kernel's
	// sequential message path touches it.
	wakeSeq map[int32]uint32

	Stats Stats
}

// NewInjector compiles a plan. The caller should Validate first; rates
// outside [0, 1] and a DelayCycles above MaxDelayCycles are clamped here
// rather than rejected.
func NewInjector(p Plan) *Injector {
	inj := &Injector{plan: p, classMask: p.ClassMask}
	inj.delayCycles = min(p.DelayCycles, MaxDelayCycles)
	if inj.delayCycles == 0 {
		inj.delayCycles = 16
	}
	fc := p.FreezeCycles
	if fc == 0 {
		fc = 1024
	}
	inj.epochShift = uint(64 - 1)
	for s := uint(0); s < 64; s++ {
		if uint64(1)<<s >= fc {
			inj.epochShift = s
			break
		}
	}
	inj.dropThr = thr(p.DropRate)
	inj.dupThr = inj.dropThr + thr(p.DupRate)
	inj.delayThr = inj.dupThr + thr(p.DelayRate)
	inj.freezeThr = thr(p.FreezeRate)
	inj.wakeThr = thr(p.WakeLossRate)
	inj.corruptThr = thr(p.CorruptRate)
	for _, ev := range p.Events {
		switch ev.Kind {
		case KindDrop, KindDup, KindDelay:
			if inj.flitEvents == nil {
				inj.flitEvents = make(map[flitKey]Kind)
			}
			inj.flitEvents[flitKey{ev.Link, ev.At}] = ev.Kind
		case KindFreeze:
			if inj.freezes == nil {
				inj.freezes = make(map[int32][]freezeWin)
			}
			inj.freezes[ev.Router] = append(inj.freezes[ev.Router],
				freezeWin{ev.At, ev.At + ev.Span})
		case KindWakeLoss:
			if inj.wakeEvents == nil {
				inj.wakeEvents = make(map[wakeKey]struct{})
			}
			inj.wakeEvents[wakeKey{ev.Lock, ev.Nth}] = struct{}{}
		}
	}
	if p.WakeLossRate > 0 || inj.wakeEvents != nil {
		inj.wakeSeq = make(map[int32]uint32)
	}
	return inj
}

// Plan returns the compiled plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// DelayCycles returns the extra latency a delayed flit suffers.
func (inj *Injector) DelayCycles() uint64 { return inj.delayCycles }

// DefaultClassMask sets the class mask if the plan left it zero. The
// consumer (noc.SetFaults) calls this with its protocol-appropriate
// default before the first tick.
func (inj *Injector) DefaultClassMask(mask uint16) {
	if inj.classMask == 0 {
		inj.classMask = mask
	}
}

// thr converts a probability to a 64-bit hash threshold.
func thr(rate float64) uint64 {
	if rate <= 0 || math.IsNaN(rate) {
		return 0
	}
	if rate >= 1 {
		return math.MaxUint64
	}
	return uint64(rate * float64(math.MaxUint64))
}

// mix is the splitmix64 finalizer: a cheap, statistically strong 64-bit
// mixer used to turn (seed, identity) keys into uniform draws.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// golden is the 64-bit golden-ratio prime, used to fold key components
// together before mixing.
const golden = 0x9e3779b97f4a7c15

// Per-decision salts decorrelate the hash streams so e.g. the packets a
// drop plan kills are unrelated to the ones a corrupt plan mangles.
const (
	saltFlit    = 0xf117
	saltFreeze  = 0xf0e2
	saltWake    = 0x3a8e
	saltCorrupt = 0xc027
)

// FlitFate decides what happens to a flit arriving on link at cycle at.
// The rate-based draw keys on (seed, pktID, link) only — not the flit
// sequence number or cycle — so every flit of a packet shares one fate
// per link and a Drop removes the packet atomically. The second return
// is the extra delay (valid when the action is Delay).
func (inj *Injector) FlitFate(at, pktID uint64, isTail bool, link int32, class uint8) (Action, uint64) {
	if inj.classMask>>class&1 == 0 {
		return Deliver, 0
	}
	act := Deliver
	if len(inj.flitEvents) > 0 {
		if k, ok := inj.flitEvents[flitKey{link, at}]; ok {
			switch k {
			case KindDrop:
				act = Drop
			case KindDup:
				act = Dup
			case KindDelay:
				act = Delay
			}
		}
	}
	if act == Deliver && inj.delayThr > 0 {
		h := mix(inj.plan.Seed ^ saltFlit ^ pktID*golden ^ uint64(link)*0x2545f4914f6cdd1d)
		switch {
		case h < inj.dropThr:
			act = Drop
		case h < inj.dupThr:
			act = Dup
		case h < inj.delayThr:
			act = Delay
		}
	}
	switch act {
	case Drop:
		inj.Stats.DroppedFlits.Add(1)
		if isTail {
			inj.Stats.DroppedTails.Add(1)
		}
	case Dup:
		inj.Stats.DupFlits.Add(1)
	case Delay:
		inj.Stats.DelayedFlits.Add(1)
		return Delay, inj.delayCycles
	}
	return act, 0
}

// Frozen reports whether router is frozen at cycle now: either a
// scripted freeze window covers now, or the rate draw for the router's
// current freeze epoch fires. An epoch-frozen router stays frozen until
// the epoch boundary, modelling a stalled pipeline of bounded length.
func (inj *Injector) Frozen(now uint64, router int32) bool {
	if wins := inj.freezes[router]; len(wins) > 0 {
		for _, w := range wins {
			if now >= w.from && now < w.to {
				inj.Stats.FrozenTicks.Add(1)
				return true
			}
		}
	}
	if inj.freezeThr > 0 {
		h := mix(inj.plan.Seed ^ saltFreeze ^ uint64(router)*golden ^ (now>>inj.epochShift)*0x2545f4914f6cdd1d)
		if h < inj.freezeThr {
			inj.Stats.FrozenTicks.Add(1)
			return true
		}
	}
	return false
}

// DropWake decides whether the next FUTEX_WAKE hand-off for lock is
// swallowed. Each call consumes one per-lock ordinal, so scripted
// KindWakeLoss events address "the Nth wake of lock L" exactly.
//
// NOT safe for concurrent use: only the kernel's sequential message
// delivery path may call it.
func (inj *Injector) DropWake(now uint64, lock int32) bool {
	if inj.wakeSeq == nil {
		return false
	}
	nth := inj.wakeSeq[lock]
	inj.wakeSeq[lock] = nth + 1
	if _, ok := inj.wakeEvents[wakeKey{lock, nth}]; ok {
		inj.Stats.DroppedWakes.Add(1)
		return true
	}
	if inj.wakeThr > 0 {
		h := mix(inj.plan.Seed ^ saltWake ^ uint64(lock)*golden ^ uint64(nth)*0x2545f4914f6cdd1d)
		if h < inj.wakeThr {
			inj.Stats.DroppedWakes.Add(1)
			return true
		}
	}
	return false
}

// CorruptPriority decides whether the locking-request packet pktID has
// its priority header corrupted, and returns the corrupted priority if
// so. The corruption derives fresh check/prog/class values from hash
// bits, including out-of-range class values — the arbitration comparator
// must tolerate arbitrary headers.
//
// Called from the sequential Network.Send path only.
func (inj *Injector) CorruptPriority(pktID uint64, prio core.Priority) (core.Priority, bool) {
	if inj.corruptThr == 0 {
		return prio, false
	}
	h := mix(inj.plan.Seed ^ saltCorrupt ^ pktID*golden)
	if h >= inj.corruptThr {
		return prio, false
	}
	inj.Stats.CorruptedPrios.Add(1)
	g := mix(h)
	return core.Priority{
		Check: g&1 == 1,
		Class: uint8(g >> 8),
		Prog:  uint16(g >> 16),
	}, true
}

// SnapshotStats returns a plain-value copy of the fault counters.
func (inj *Injector) SnapshotStats() Snapshot {
	if inj == nil {
		return Snapshot{}
	}
	return Snapshot{
		DroppedFlits:   inj.Stats.DroppedFlits.Load(),
		DroppedTails:   inj.Stats.DroppedTails.Load(),
		DupFlits:       inj.Stats.DupFlits.Load(),
		DelayedFlits:   inj.Stats.DelayedFlits.Load(),
		FrozenTicks:    inj.Stats.FrozenTicks.Load(),
		DroppedWakes:   inj.Stats.DroppedWakes.Load(),
		CorruptedPrios: inj.Stats.CorruptedPrios.Load(),
	}
}
