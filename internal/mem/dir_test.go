package mem

import (
	"testing"

	"repro/internal/sim"
)

// dirHarness drives a Directory directly, capturing outgoing messages.
type dirHarness struct {
	dir  *Directory
	dq   sim.DelayQueue
	sent []*Msg
	dsts []int
	now  uint64
}

func newDirHarness(t *testing.T) *dirHarness {
	t.Helper()
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	h := &dirHarness{}
	ccfg := cfg
	h.dir = newDirectory(&ccfg, 0, 16, []int{1}, func(now uint64, dst int, m Msg) {
		h.sent = append(h.sent, &m)
		h.dsts = append(h.dsts, dst)
	}, func(*Msg) {}, &h.dq)
	return h
}

// step delivers a message and runs the directory pipeline to completion.
func (h *dirHarness) step(m *Msg) {
	h.dir.Deliver(h.now, m)
	h.now += 100
	h.dq.RunDue(h.now)
}

func (h *dirHarness) take() []*Msg {
	out := h.sent
	h.sent = nil
	h.dsts = nil
	return out
}

const addr = uint64(0x1000)

// acquireE walks a block to the Exclusive state at node `who`.
func (h *dirHarness) acquireE(who int) {
	h.step(&Msg{Type: MsgGetS, To: ToDir, Addr: addr, From: who})
	msgs := h.take()
	// Cold: DramRead to MC, then respond.
	if len(msgs) != 1 || msgs[0].Type != MsgDramRead {
		h.fatal("expected DramRead, got %v", msgs)
	}
	h.step(&Msg{Type: MsgDramResp, To: ToDir, Addr: addr, From: 1, Version: 0})
	msgs = h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgDataE {
		h.fatal("expected DataE, got %v", msgs)
	}
	h.step(&Msg{Type: MsgUnblock, To: ToDir, Addr: addr, From: who})
	h.take()
}

func (h *dirHarness) fatal(format string, args ...any) {
	panic(append([]any{format}, args...))
}

func TestDirColdGetSGrantsExclusive(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	e := h.dir.entries[addr]
	if e.state != dirE || e.owner != 3 || e.busy {
		t.Fatalf("state after cold GetS: %+v", e)
	}
	if h.dir.Stats.DramFetches != 1 {
		t.Fatalf("dram fetches = %d", h.dir.Stats.DramFetches)
	}
}

func TestDirForwardGetSDirtyMakesOwned(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	// Node 5 reads: forward to owner 3.
	h.step(&Msg{Type: MsgGetS, To: ToDir, Addr: addr, From: 5})
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgFwdGetS || msgs[0].Req != 5 {
		t.Fatalf("expected FwdGetS to owner: %v", msgs)
	}
	// Owner was dirty (silent E->M): notify dirty + requester unblocks.
	h.step(&Msg{Type: MsgFwdNotify, To: ToDir, Addr: addr, From: 3, Req: 5, Dirty: true})
	h.step(&Msg{Type: MsgUnblock, To: ToDir, Addr: addr, From: 5})
	e := h.dir.entries[addr]
	if e.state != dirO || e.owner != 3 {
		t.Fatalf("expected O with owner 3: state=%s owner=%d", e.state, e.owner)
	}
	if !e.sharers.has(5) || !e.sharers.has(3) {
		t.Fatalf("sharers wrong: %v", e.sharers.members())
	}
}

func TestDirForwardGetSCleanMakesShared(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	h.step(&Msg{Type: MsgGetS, To: ToDir, Addr: addr, From: 5})
	h.take()
	h.step(&Msg{Type: MsgFwdNotify, To: ToDir, Addr: addr, From: 3, Req: 5, Dirty: false})
	h.step(&Msg{Type: MsgUnblock, To: ToDir, Addr: addr, From: 5})
	e := h.dir.entries[addr]
	if e.state != dirS || e.owner != -1 {
		t.Fatalf("expected S: state=%s owner=%d", e.state, e.owner)
	}
}

func TestDirGetMFromSharedSendsInvalidations(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	// Downgrade to S with sharers {3,5}.
	h.step(&Msg{Type: MsgGetS, To: ToDir, Addr: addr, From: 5})
	h.take()
	h.step(&Msg{Type: MsgFwdNotify, To: ToDir, Addr: addr, From: 3, Req: 5, Dirty: false})
	h.step(&Msg{Type: MsgUnblock, To: ToDir, Addr: addr, From: 5})
	h.take()
	// Node 7 writes.
	h.step(&Msg{Type: MsgGetM, To: ToDir, Addr: addr, From: 7})
	msgs := h.take()
	var data *Msg
	invs := 0
	for _, m := range msgs {
		switch m.Type {
		case MsgDataM:
			data = m
		case MsgInv:
			invs++
			if m.Req != 7 {
				t.Fatalf("inv ack target = %d", m.Req)
			}
		}
	}
	if data == nil || data.Acks != 2 || invs != 2 {
		t.Fatalf("GetM fanout wrong: data=%+v invs=%d", data, invs)
	}
	h.step(&Msg{Type: MsgUnblock, To: ToDir, Addr: addr, From: 7})
	e := h.dir.entries[addr]
	if e.state != dirM || e.owner != 7 || !e.sharers.empty() {
		t.Fatalf("after GetM: state=%s owner=%d sharers=%v", e.state, e.owner, e.sharers.members())
	}
}

func TestDirBusyQueuesRequests(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	// Start a transaction but don't complete it.
	h.dir.Deliver(h.now, &Msg{Type: MsgGetS, To: ToDir, Addr: addr, From: 5})
	h.now += 100
	h.dq.RunDue(h.now)
	h.take()
	// A racing request queues.
	h.dir.Deliver(h.now, &Msg{Type: MsgGetM, To: ToDir, Addr: addr, From: 7})
	if h.dir.Stats.QueuedReqs != 1 {
		t.Fatalf("queued = %d", h.dir.Stats.QueuedReqs)
	}
	if got := h.dir.BusyBlocks(); got != 2 { // busy + 1 queued
		t.Fatalf("busy blocks = %d", got)
	}
	// Complete the first; the queued GetM must start automatically.
	h.step(&Msg{Type: MsgFwdNotify, To: ToDir, Addr: addr, From: 3, Req: 5, Dirty: true})
	h.step(&Msg{Type: MsgUnblock, To: ToDir, Addr: addr, From: 5})
	msgs := h.take()
	found := false
	for _, m := range msgs {
		if m.Type == MsgFwdGetM {
			found = true
		}
	}
	if !found {
		t.Fatalf("queued GetM not serviced: %v", msgs)
	}
}

func TestDirStalePutAck(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	// A PutM from a non-owner is stale.
	h.step(&Msg{Type: MsgPutM, To: ToDir, Addr: addr, From: 9, Version: 42})
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgPutAck || !msgs[0].Stale {
		t.Fatalf("expected stale PutAck: %v", msgs)
	}
	if h.dir.Stats.StalePuts != 1 {
		t.Fatalf("stale puts = %d", h.dir.Stats.StalePuts)
	}
	// Owner unchanged.
	if e := h.dir.entries[addr]; e.owner != 3 {
		t.Fatalf("owner clobbered: %d", e.owner)
	}
}

func TestDirOwnerPutMReturnsDataToL2(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	h.step(&Msg{Type: MsgPutM, To: ToDir, Addr: addr, From: 3, Version: 7})
	msgs := h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgPutAck || msgs[0].Stale {
		t.Fatalf("expected clean PutAck: %v", msgs)
	}
	e := h.dir.entries[addr]
	if e.state != dirI || !e.inL2 || e.version != 7 {
		t.Fatalf("writeback lost: %+v", e)
	}
	// A subsequent GetS is served from L2 (no DRAM fetch) with version 7.
	h.step(&Msg{Type: MsgGetS, To: ToDir, Addr: addr, From: 5})
	msgs = h.take()
	if len(msgs) != 1 || msgs[0].Type != MsgDataE || msgs[0].Version != 7 {
		t.Fatalf("refill wrong: %v", msgs)
	}
}

func TestDirPutSClearsSharer(t *testing.T) {
	h := newDirHarness(t)
	h.acquireE(3)
	h.step(&Msg{Type: MsgGetS, To: ToDir, Addr: addr, From: 5})
	h.take()
	h.step(&Msg{Type: MsgFwdNotify, To: ToDir, Addr: addr, From: 3, Req: 5, Dirty: false})
	h.step(&Msg{Type: MsgUnblock, To: ToDir, Addr: addr, From: 5})
	h.take()
	h.step(&Msg{Type: MsgPutS, To: ToDir, Addr: addr, From: 5})
	h.take()
	e := h.dir.entries[addr]
	if e.sharers.has(5) {
		t.Fatal("sharer not removed")
	}
	if e.state != dirS || !e.sharers.has(3) {
		t.Fatalf("state after PutS: %s %v", e.state, e.sharers.members())
	}
	// Last sharer leaving collapses to I.
	h.step(&Msg{Type: MsgPutS, To: ToDir, Addr: addr, From: 3})
	if e.state != dirI {
		t.Fatalf("state = %s, want I", e.state)
	}
}

func TestL2CapacityEviction(t *testing.T) {
	// A tiny 1-set, 2-way L2: filling three clean-resident blocks must
	// evict the oldest back to DRAM.
	cfg := DefaultConfig()
	cfg.L2Sets = 1
	cfg.L2Ways = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var dq sim.DelayQueue
	var sent []*Msg
	d := newDirectory(&cfg, 0, 1, []int{0}, func(now uint64, dst int, m Msg) {
		sent = append(sent, &m)
	}, func(*Msg) {}, &dq)

	fill := func(addr uint64, version uint64) {
		e := d.entry(addr)
		e.version = version
		d.setInL2(0, addr, e, true)
	}
	fill(0x0000, 1)
	fill(0x1000, 2)
	if d.Stats.L2Evictions != 0 {
		t.Fatal("premature eviction")
	}
	fill(0x2000, 3)
	if d.Stats.L2Evictions != 1 {
		t.Fatalf("evictions = %d", d.Stats.L2Evictions)
	}
	// Oldest resident (0x0000) was written back to DRAM with its version.
	if len(sent) != 1 || sent[0].Type != MsgDramWrite || sent[0].Addr != 0 || sent[0].Version != 1 {
		t.Fatalf("writeback = %+v", sent)
	}
	// Evicted block's entry is gone (no sharing state to keep).
	if _, ok := d.entries[0]; ok {
		t.Fatal("evicted entry retained")
	}
	// Survivors still resident.
	if !d.entries[0x1000].inL2 || !d.entries[0x2000].inL2 {
		t.Fatal("residents lost")
	}
}

func TestL2EvictionSkipsSharedBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Sets = 1
	cfg.L2Ways = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var dq sim.DelayQueue
	d := newDirectory(&cfg, 0, 1, []int{0}, func(now uint64, dst int, m Msg) {}, func(*Msg) {}, &dq)
	// A shared block holds L2 data and sharers: not evictable.
	e := d.entry(0x0)
	e.state = dirS
	e.sharers.add(3)
	d.setInL2(0, 0x0, e, true)
	// Inserting another block overflows rather than evicting the shared one.
	e2 := d.entry(0x1000)
	d.setInL2(0, 0x1000, e2, true)
	if d.Stats.L2Evictions != 0 {
		t.Fatal("evicted a shared block")
	}
	if d.Stats.L2Overflows != 1 {
		t.Fatalf("overflows = %d", d.Stats.L2Overflows)
	}
	if !e.inL2 || !e.sharers.has(3) {
		t.Fatal("shared block disturbed")
	}
}

func TestL2EvictedBlockRefetchesFromDram(t *testing.T) {
	// End-to-end: write a block, force it out of a tiny L2 via capacity,
	// and check a later read still observes the written version.
	ncfgSmall := DefaultConfig()
	ncfgSmall.L2Sets = 1
	ncfgSmall.L2Ways = 1
	h := newHarnessWithMem(t, 4, 4, ncfgSmall)
	// Write then evict from L1 (fill the L1 set) so the dirty data lands
	// in the home L2 bank.
	cfg := h.mem.Cfg
	setStride := uint64(cfg.BlockBytes * cfg.L1Sets)
	target := uint64(0)
	h.access(0, target, true)
	h.drain(t, 200000)
	for i := 1; i <= cfg.L1Ways; i++ {
		h.access(0, target+uint64(i)*setStride, true)
		h.drain(t, 200000)
	}
	// The L1 evictions wrote several blocks into the same home L2 sets;
	// with a 1x1 L2, earlier residents spilled to DRAM. Reading the target
	// back must return version 1 regardless of where it ended up.
	done := h.access(1, target, false)
	h.drain(t, 400000)
	if *done == 0 {
		t.Fatal("refetch never completed")
	}
	if v := h.mem.L1(1).Version(target); v != 1 {
		t.Fatalf("version after spill = %d, want 1", v)
	}
}
