package fault

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestPlanEnabled(t *testing.T) {
	var p *Plan
	if p.Enabled() {
		t.Fatal("nil plan reports enabled")
	}
	if (&Plan{Seed: 7}).Enabled() {
		t.Fatal("zero-rate plan reports enabled")
	}
	if !(&Plan{DropRate: 0.1}).Enabled() {
		t.Fatal("drop plan reports disabled")
	}
	if !(&Plan{Events: []Event{{Kind: KindFreeze, Span: 1}}}).Enabled() {
		t.Fatal("scripted plan reports disabled")
	}
}

func TestPlanValidate(t *testing.T) {
	good := Plan{DropRate: 0.3, DupRate: 0.3, DelayRate: 0.4, DelayCycles: MaxDelayCycles}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{DropRate: -0.1},
		{DupRate: 1.5},
		{WakeLossRate: math.NaN()},
		{DropRate: 0.5, DupRate: 0.4, DelayRate: 0.2}, // sums to 1.1
		{Events: []Event{{Kind: KindFreeze, Span: 0}}},
		{Events: []Event{{Kind: Kind(99)}}},
		{Events: []Event{{Kind: KindWakeLoss, Lock: -1}}},
		{DelayRate: 0.1, DelayCycles: MaxDelayCycles + 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

// TestFlitFateDeterministic: the fate draw must be a pure function of
// (seed, pktID, link) — same inputs, same fate, across injector
// instances, and independent of flit seq / cycle.
func TestFlitFateDeterministic(t *testing.T) {
	plan := Plan{Seed: 3, DropRate: 0.2, DupRate: 0.2, DelayRate: 0.2, ClassMask: 0xffff}
	a := NewInjector(plan)
	b := NewInjector(plan)
	for pkt := uint64(0); pkt < 500; pkt++ {
		for link := int32(0); link < 8; link++ {
			f1, d1 := a.FlitFate(100, pkt, false, link, 2)
			f2, d2 := a.FlitFate(9999, pkt, true, link, 2) // different cycle
			f3, d3 := b.FlitFate(5, pkt, false, link, 2)   // fresh injector
			if f1 != f2 || f1 != f3 || d1 != d2 || d1 != d3 {
				t.Fatalf("pkt %d link %d: fates %v/%v/%v", pkt, link, f1, f2, f3)
			}
		}
	}
}

func TestFlitFateRates(t *testing.T) {
	plan := Plan{Seed: 11, DropRate: 0.25, DupRate: 0.25, DelayRate: 0.25, ClassMask: 0xffff}
	inj := NewInjector(plan)
	counts := map[Action]int{}
	const n = 20000
	for pkt := uint64(0); pkt < n; pkt++ {
		act, _ := inj.FlitFate(0, pkt, true, 1, 0)
		counts[act]++
	}
	for _, act := range []Action{Deliver, Drop, Dup, Delay} {
		frac := float64(counts[act]) / n
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("action %d frequency %.3f, want ~0.25", act, frac)
		}
	}
	if got := inj.Stats.DroppedTails.Load(); got != uint64(counts[Drop]) {
		t.Errorf("DroppedTails %d, want %d", got, counts[Drop])
	}
}

func TestFlitFateClassMask(t *testing.T) {
	inj := NewInjector(Plan{DropRate: 1})
	inj.DefaultClassMask(1 << 2)
	if act, _ := inj.FlitFate(0, 1, true, 0, 0); act != Deliver {
		t.Fatalf("masked-out class faulted: %v", act)
	}
	if act, _ := inj.FlitFate(0, 1, true, 0, 2); act != Drop {
		t.Fatalf("masked-in class delivered: %v", act)
	}
	// DefaultClassMask must not override an explicit mask.
	inj2 := NewInjector(Plan{DropRate: 1, ClassMask: 1 << 5})
	inj2.DefaultClassMask(1 << 2)
	if act, _ := inj2.FlitFate(0, 1, true, 0, 2); act != Deliver {
		t.Fatal("explicit mask overridden by default")
	}
}

func TestScriptedFlitEvent(t *testing.T) {
	inj := NewInjector(Plan{ClassMask: 0xffff, Events: []Event{
		{Kind: KindDrop, Link: 3, At: 100},
		{Kind: KindDup, Link: 3, At: 101},
		{Kind: KindDelay, Link: 4, At: 100},
	}})
	if act, _ := inj.FlitFate(100, 1, true, 3, 0); act != Drop {
		t.Fatalf("scripted drop: got %v", act)
	}
	if act, _ := inj.FlitFate(101, 1, false, 3, 0); act != Dup {
		t.Fatalf("scripted dup: got %v", act)
	}
	if act, extra := inj.FlitFate(100, 1, false, 4, 0); act != Delay || extra != 16 {
		t.Fatalf("scripted delay: got %v extra %d", act, extra)
	}
	if act, _ := inj.FlitFate(100, 1, false, 5, 0); act != Deliver {
		t.Fatalf("unscripted flit faulted: %v", act)
	}
}

func TestFrozen(t *testing.T) {
	inj := NewInjector(Plan{Events: []Event{{Kind: KindFreeze, Router: 2, At: 50, Span: 10}}})
	for now, want := range map[uint64]bool{49: false, 50: true, 59: true, 60: false} {
		if got := inj.Frozen(now, 2); got != want {
			t.Errorf("Frozen(%d, 2) = %v, want %v", now, got, want)
		}
	}
	if inj.Frozen(55, 3) {
		t.Error("unscripted router frozen")
	}

	// Rate-based freezes are epoch-stable: within one epoch the answer
	// never changes, and the overall frequency tracks the rate.
	rinj := NewInjector(Plan{Seed: 5, FreezeRate: 0.3, FreezeCycles: 64})
	frozenEpochs := 0
	const epochs = 2000
	for e := uint64(0); e < epochs; e++ {
		first := rinj.Frozen(e*64, 0)
		if rinj.Frozen(e*64+63, 0) != first {
			t.Fatalf("epoch %d not stable", e)
		}
		if first {
			frozenEpochs++
		}
	}
	frac := float64(frozenEpochs) / epochs
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("frozen-epoch frequency %.3f, want ~0.3", frac)
	}
}

func TestDropWake(t *testing.T) {
	inj := NewInjector(Plan{Events: []Event{
		{Kind: KindWakeLoss, Lock: 1, Nth: 0},
		{Kind: KindWakeLoss, Lock: 1, Nth: 2},
	}})
	got := []bool{inj.DropWake(0, 1), inj.DropWake(0, 1), inj.DropWake(0, 1), inj.DropWake(0, 1)}
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake %d: dropped=%v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if inj.DropWake(0, 2) {
		t.Error("unscripted lock dropped a wake")
	}
	if n := inj.Stats.DroppedWakes.Load(); n != 2 {
		t.Errorf("DroppedWakes = %d, want 2", n)
	}

	// Rate-based wake loss is deterministic in the (lock, ordinal) pair.
	a := NewInjector(Plan{Seed: 9, WakeLossRate: 0.5})
	b := NewInjector(Plan{Seed: 9, WakeLossRate: 0.5})
	drops := 0
	for i := 0; i < 1000; i++ {
		da := a.DropWake(uint64(i), 3)
		if db := b.DropWake(uint64(i*7), 3); da != db {
			t.Fatalf("wake %d: injectors disagree", i)
		}
		if da {
			drops++
		}
	}
	if drops < 420 || drops > 580 {
		t.Errorf("dropped %d/1000 wakes, want ~500", drops)
	}
}

func TestCorruptPriority(t *testing.T) {
	inj := NewInjector(Plan{Seed: 4, CorruptRate: 0.5})
	orig := core.Priority{Check: true, Class: 3, Prog: 7}
	changed := 0
	for pkt := uint64(0); pkt < 1000; pkt++ {
		p1, c1 := inj.CorruptPriority(pkt, orig)
		p2, c2 := inj.CorruptPriority(pkt, orig)
		if p1 != p2 || c1 != c2 {
			t.Fatalf("pkt %d: corruption not deterministic", pkt)
		}
		if !c1 && p1 != orig {
			t.Fatalf("pkt %d: priority changed without corruption flag", pkt)
		}
		if c1 {
			changed++
		}
	}
	if changed < 420 || changed > 580 {
		t.Errorf("corrupted %d/1000, want ~500", changed)
	}
	if n := inj.Stats.CorruptedPrios.Load(); n != uint64(2*changed) {
		t.Errorf("CorruptedPrios = %d, want %d", n, 2*changed)
	}

	off := NewInjector(Plan{})
	if _, c := off.CorruptPriority(1, orig); c {
		t.Error("zero-rate injector corrupted a priority")
	}
}

func TestSnapshotStats(t *testing.T) {
	var inj *Injector
	if s := inj.SnapshotStats(); s != (Snapshot{}) {
		t.Fatalf("nil injector snapshot %+v", s)
	}
	inj = NewInjector(Plan{ClassMask: 1, Events: []Event{{Kind: KindDrop, Link: 0, At: 5}}})
	inj.FlitFate(5, 1, true, 0, 0)
	s := inj.SnapshotStats()
	if s.DroppedFlits != 1 || s.DroppedTails != 1 {
		t.Fatalf("snapshot %+v", s)
	}
}
