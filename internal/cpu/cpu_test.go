package cpu

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// harness builds the full substrate (NoC + memory + kernel) for CPU tests.
type harness struct {
	e   *sim.Engine
	net *noc.Network
	ms  *mem.System
	ks  *kernel.System
}

func newHarness(t testing.TB, w, h int) *harness {
	t.Helper()
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = w, h
	net, err := noc.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mem.NewSystem(mem.DefaultConfig(), net)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.SleepPrepLatency = 100
	kcfg.WakeLatency = 200
	ks := kernel.MustSystem(kcfg, net)
	for i := 0; i < ncfg.Nodes(); i++ {
		node := i
		net.SetSink(node, func(now uint64, pkt *noc.Packet) {
			if pkt.PayloadKind == noc.PayloadMem {
				ms.DeliverPacket(now, node, pkt)
			} else {
				ks.DeliverPacket(now, node, pkt)
			}
		})
	}
	e := sim.NewEngine()
	e.Register(net)
	e.Register(ms)
	e.Register(ks)
	return &harness{e: e, net: net, ms: ms, ks: ks}
}

func (h *harness) runPrograms(t testing.TB, progs []Program, maxCycles uint64) *System {
	t.Helper()
	cs, err := NewSystem(h.ms, h.ks, progs)
	if err != nil {
		t.Fatal(err)
	}
	h.e.Register(cs)
	h.e.MaxCycles = maxCycles
	cs.Start(h.e.Now())
	h.e.RunUntil(cs.AllDone)
	if !cs.AllDone() {
		t.Fatalf("threads did not finish within %d cycles", maxCycles)
	}
	return cs
}

func TestProgramValidate(t *testing.T) {
	good := Program{
		{Kind: OpCompute, Arg: 10},
		{Kind: OpLock, Arg: 1},
		{Kind: OpLoad, Arg: 0x100},
		{Kind: OpUnlock, Arg: 1},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	nested := Program{{Kind: OpLock, Arg: 1}, {Kind: OpLock, Arg: 2}}
	if nested.Validate() == nil {
		t.Fatal("nested locks accepted")
	}
	wrongUnlock := Program{{Kind: OpLock, Arg: 1}, {Kind: OpUnlock, Arg: 2}}
	if wrongUnlock.Validate() == nil {
		t.Fatal("mismatched unlock accepted")
	}
	dangling := Program{{Kind: OpLock, Arg: 1}}
	if dangling.Validate() == nil {
		t.Fatal("dangling lock accepted")
	}
}

func TestProgramStats(t *testing.T) {
	p := Program{
		{Kind: OpCompute, Arg: 100},
		{Kind: OpCompute, Arg: 50},
		{Kind: OpLoad, Arg: 0},
		{Kind: OpStoreNB, Arg: 0},
		{Kind: OpLock, Arg: 0},
		{Kind: OpUnlock, Arg: 0},
	}
	compute, memOps, cs := p.Stats()
	if compute != 150 || memOps != 2 || cs != 1 {
		t.Fatalf("stats = %d %d %d", compute, memOps, cs)
	}
}

func TestComputeOnlyThread(t *testing.T) {
	h := newHarness(t, 2, 2)
	cs := h.runPrograms(t, []Program{{{Kind: OpCompute, Arg: 500}}}, 100000)
	th := cs.Threads[0]
	if th.Stats.FinishedAt < 500 {
		t.Fatalf("finished too early: %d", th.Stats.FinishedAt)
	}
	if th.Stats.ComputeCycles != 500 {
		t.Fatalf("compute cycles = %d", th.Stats.ComputeCycles)
	}
	if cs.ROIFinish() != th.Stats.FinishedAt {
		t.Fatal("ROI mismatch")
	}
}

func TestMemoryThread(t *testing.T) {
	h := newHarness(t, 2, 2)
	prog := Program{
		{Kind: OpLoad, Arg: 0x1000},
		{Kind: OpStore, Arg: 0x1000},
		{Kind: OpLoadNB, Arg: 0x2000},
		{Kind: OpCompute, Arg: 10},
	}
	cs := h.runPrograms(t, []Program{prog}, 1000000)
	th := cs.Threads[0]
	if th.Stats.MemOps != 3 {
		t.Fatalf("mem ops = %d", th.Stats.MemOps)
	}
	if h.ms.L1(0).State(0x1000) != mem.Modified {
		t.Fatalf("block not modified: %s", h.ms.L1(0).State(0x1000))
	}
}

func TestCriticalSectionAccounting(t *testing.T) {
	h := newHarness(t, 2, 2)
	prog := Program{
		{Kind: OpCompute, Arg: 100},
		{Kind: OpLock, Arg: 0},
		{Kind: OpCompute, Arg: 200},
		{Kind: OpUnlock, Arg: 0},
		{Kind: OpCompute, Arg: 100},
	}
	cs := h.runPrograms(t, []Program{prog}, 1000000)
	th := cs.Threads[0]
	if th.Stats.Acquisitions != 1 {
		t.Fatalf("acquisitions = %d", th.Stats.Acquisitions)
	}
	if th.Stats.CSCycles < 200 {
		t.Fatalf("CS cycles = %d, want >= 200", th.Stats.CSCycles)
	}
	if th.Stats.BlockedCycles == 0 {
		t.Fatal("no blocking recorded (lock round trip takes cycles)")
	}
	total := th.Stats.FinishedAt - th.Stats.StartedAt
	if th.Stats.ParallelCycles()+th.Stats.BlockedCycles+th.Stats.CSCycles != total {
		t.Fatal("time breakdown does not add up")
	}
}

func TestTwoThreadsExclusion(t *testing.T) {
	h := newHarness(t, 2, 2)
	mk := func() Program {
		var p Program
		for i := 0; i < 5; i++ {
			p = append(p,
				Op{Kind: OpLock, Arg: 3},
				Op{Kind: OpLoad, Arg: 0x9000},
				Op{Kind: OpCompute, Arg: 50},
				Op{Kind: OpStore, Arg: 0x9000},
				Op{Kind: OpUnlock, Arg: 3},
				Op{Kind: OpCompute, Arg: 100},
			)
		}
		return p
	}
	h.runPrograms(t, []Program{mk(), mk(), mk(), mk()}, 10000000)
	// 4 threads x 5 RMW under one lock: final version is exactly 20 —
	// the canonical lost-update test.
	var version uint64
	for n := 0; n < 4; n++ {
		if v := h.ms.L1(n).Version(0x9000); v > version {
			version = v
		}
	}
	home := h.ms.Cfg.HomeNode(0x9000, 4)
	_ = home
	if version != 20 {
		t.Fatalf("final counter version = %d, want 20 (mutual exclusion broken?)", version)
	}
	if err := h.ms.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionListeners(t *testing.T) {
	h := newHarness(t, 2, 2)
	var events []Region
	prog := Program{
		{Kind: OpCompute, Arg: 10},
		{Kind: OpLock, Arg: 0},
		{Kind: OpCompute, Arg: 10},
		{Kind: OpUnlock, Arg: 0},
	}
	cs, err := NewSystem(h.ms, h.ks, []Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	cs.AddRegionListener(func(thread int, r Region, now uint64) {
		if thread == 0 {
			events = append(events, r)
		}
	})
	h.e.Register(cs)
	h.e.MaxCycles = 1000000
	cs.Start(0)
	h.e.RunUntil(cs.AllDone)
	want := []Region{RegionParallel, RegionBlocked, RegionCS, RegionParallel, RegionDone}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	h := newHarness(t, 2, 2)
	// Thread 0 computes 10 cycles, thread 1 computes 2000; both then hit
	// the barrier. Their post-barrier timestamps must match.
	var after [2]uint64
	mk := func(compute uint64) Program {
		return Program{
			{Kind: OpCompute, Arg: compute},
			{Kind: OpBarrier, Arg: 7},
			{Kind: OpCompute, Arg: 1},
		}
	}
	cs, err := NewSystem(h.ms, h.ks, []Program{mk(10), mk(2000)})
	if err != nil {
		t.Fatal(err)
	}
	h.e.Register(cs)
	h.e.MaxCycles = 1000000
	cs.Start(0)
	h.e.RunUntil(cs.AllDone)
	for i, th := range cs.Threads {
		after[i] = th.Stats.FinishedAt
	}
	if after[0] != after[1] {
		t.Fatalf("barrier did not synchronize: %d vs %d", after[0], after[1])
	}
	if after[0] < 2000 {
		t.Fatalf("fast thread did not wait: %d", after[0])
	}
}

func TestSingleThreadBarrierPassesThrough(t *testing.T) {
	h := newHarness(t, 2, 2)
	prog := Program{{Kind: OpBarrier, Arg: 1}, {Kind: OpCompute, Arg: 5}}
	cs := h.runPrograms(t, []Program{prog}, 100000)
	if !cs.Threads[0].Done {
		t.Fatal("single-participant barrier deadlocked")
	}
}

func TestTooManyPrograms(t *testing.T) {
	h := newHarness(t, 2, 2)
	progs := make([]Program, 5) // 5 programs for 4 nodes
	for i := range progs {
		progs[i] = Program{{Kind: OpCompute, Arg: 1}}
	}
	if _, err := NewSystem(h.ms, h.ks, progs); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestNilProgramSkipsNode(t *testing.T) {
	h := newHarness(t, 2, 2)
	progs := []Program{nil, {{Kind: OpCompute, Arg: 10}}}
	cs := h.runPrograms(t, progs, 100000)
	if len(cs.Threads) != 1 || cs.Threads[0].ID != 1 {
		t.Fatalf("threads = %v", cs.Threads)
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpCompute, OpLoad, OpStore, OpLock, OpUnlock, OpLoadNB, OpStoreNB, OpBarrier}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate string for %d: %q", k, s)
		}
		seen[s] = true
	}
	if RegionParallel.String() != "parallel" || RegionDone.String() != "done" {
		t.Fatal("region strings wrong")
	}
}
