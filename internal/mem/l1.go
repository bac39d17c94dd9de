package mem

import (
	"fmt"

	"repro/internal/sim"
)

// LineState is the MOESI state of an L1 cache line.
type LineState uint8

// MOESI stable states.
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
	Owned
)

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// line is one L1 cache line. Version stands in for the block's data: every
// write increments it, which lets tests check that reads observe the most
// recent write.
type line struct {
	addr     uint64
	state    LineState
	version  uint64
	lastUse  uint64
	valid    bool
	reserved bool // way claimed by an outstanding miss
}

// mshr tracks one outstanding miss (or upgrade) for a block.
type mshr struct {
	addr      uint64
	wantWrite bool
	hasLine   bool // upgrade: the S line is still cached
	way       int  // reserved way (when !hasLine)
	set       int
	gotData   bool
	dataState LineState // state granted by the response
	version   uint64
	acksNeed  int // -1 until DataM arrives
	acksGot   int
	waiters   []func(now uint64)
	deferred  []op // ops that must replay after completion
}

// wbEntry retains an evicted block until the directory acknowledges the
// eviction; forwards that race with the eviction are served from here.
type wbEntry struct {
	state   LineState // state at eviction
	version uint64
	waiters []op // accesses to the block arriving during write-back
}

// op is a CPU memory operation.
type op struct {
	addr  uint64
	write bool
	cb    func(now uint64)
}

// L1Stats counts L1 activity.
type L1Stats struct {
	Hits, Misses  uint64
	ReadHits      uint64
	WriteHits     uint64
	Upgrades      uint64
	Evictions     uint64
	DirtyEvicts   uint64
	InvsReceived  uint64
	FwdsServed    uint64
	MSHRStalls    uint64
	AccessesTotal uint64
}

// L1 is a private, set-associative, write-back MOESI L1 cache.
type L1 struct {
	cfg   *Config
	node  int
	nodes int
	send  func(now uint64, dst int, m Msg)
	delay *sim.DelayQueue

	sets  [][]line
	mshrs map[uint64]*mshr
	// mshrFree recycles retired MSHRs (waiter/deferred slices keep their
	// capacity), so the steady state allocates none.
	mshrFree []*mshr
	wb       map[uint64]*wbEntry
	// wbFree recycles acknowledged write-back entries the same way, so an
	// eviction allocates nothing once the freelist has grown to the most
	// write-backs this L1 had in flight at once.
	wbFree []*wbEntry
	// stalled holds ops waiting for a free MSHR or victim way.
	stalled []op

	Stats L1Stats
}

func newL1(cfg *Config, node, nodes int, send func(now uint64, dst int, m Msg), dq *sim.DelayQueue) *L1 {
	l := &L1{
		cfg:   cfg,
		node:  node,
		nodes: nodes,
		send:  send,
		delay: dq,
		mshrs: make(map[uint64]*mshr),
		wb:    make(map[uint64]*wbEntry),
	}
	l.sets = make([][]line, cfg.L1Sets)
	for i := range l.sets {
		l.sets[i] = make([]line, cfg.L1Ways)
	}
	return l
}

// allocMSHR draws a reset MSHR from the freelist (or the heap when empty).
func (l *L1) allocMSHR() *mshr {
	if n := len(l.mshrFree); n > 0 {
		m := l.mshrFree[n-1]
		l.mshrFree = l.mshrFree[:n-1]
		return m
	}
	return &mshr{}
}

// freeMSHR resets m (dropping retained callbacks, keeping slice capacity)
// and returns it to the freelist.
func (l *L1) freeMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	for i := range m.deferred {
		m.deferred[i] = op{}
	}
	*m = mshr{waiters: m.waiters[:0], deferred: m.deferred[:0]}
	l.mshrFree = append(l.mshrFree, m)
}

// allocWB draws a reset write-back entry from the freelist (or the heap
// when empty).
func (l *L1) allocWB() *wbEntry {
	if n := len(l.wbFree); n > 0 {
		e := l.wbFree[n-1]
		l.wbFree = l.wbFree[:n-1]
		return e
	}
	return &wbEntry{}
}

// freeWB resets e (dropping retained callbacks, keeping slice capacity)
// and returns it to the freelist.
func (l *L1) freeWB(e *wbEntry) {
	for i := range e.waiters {
		e.waiters[i] = op{}
	}
	*e = wbEntry{waiters: e.waiters[:0]}
	l.wbFree = append(l.wbFree, e)
}

func (l *L1) setIndex(addr uint64) int {
	return int(l.cfg.BlockIndex(addr)) % l.cfg.L1Sets
}

func (l *L1) lookup(addr uint64) *line {
	set := l.sets[l.setIndex(addr)]
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			return &set[i]
		}
	}
	return nil
}

// State returns the MOESI state of addr (Invalid when not cached); used by
// invariant-checking tests.
func (l *L1) State(addr uint64) LineState {
	addr = l.cfg.BlockAddr(addr)
	if ln := l.lookup(addr); ln != nil {
		return ln.state
	}
	return Invalid
}

// Version returns the data version held for addr (only meaningful when
// State != Invalid).
func (l *L1) Version(addr uint64) uint64 {
	addr = l.cfg.BlockAddr(addr)
	if ln := l.lookup(addr); ln != nil {
		return ln.version
	}
	return 0
}

// PendingOps reports outstanding misses plus write-backs (for quiescence).
func (l *L1) PendingOps() int {
	return len(l.mshrs) + len(l.wb) + len(l.stalled)
}

// Access performs a read (write=false) or write at addr and invokes cb when
// the access completes. The cache is non-blocking: up to cfg.MSHRs misses
// can be outstanding; further misses stall and are replayed in order.
func (l *L1) Access(now uint64, addr uint64, write bool, cb func(now uint64)) {
	l.Stats.AccessesTotal++
	addr = l.cfg.BlockAddr(addr)
	l.access(now, op{addr: addr, write: write, cb: cb})
}

func (l *L1) access(now uint64, o op) {
	// Block being written back: wait for the PutAck.
	if e, ok := l.wb[o.addr]; ok {
		e.waiters = append(e.waiters, o)
		return
	}
	// Outstanding miss on the same block: merge or defer.
	if m, ok := l.mshrs[o.addr]; ok {
		if !o.write || m.wantWrite {
			// Reads merge with anything; writes merge with a pending GetM.
			if o.cb != nil {
				m.waiters = append(m.waiters, o.cb)
			}
		} else {
			// Write behind a pending GetS: replay after it completes.
			m.deferred = append(m.deferred, o)
		}
		return
	}

	ln := l.lookup(o.addr)
	if ln != nil {
		switch {
		case !o.write:
			// Read hit in any valid state.
			l.hit(now, ln, o)
			return
		case ln.state == Modified:
			l.hit(now, ln, o)
			return
		case ln.state == Exclusive:
			// Silent E -> M upgrade.
			ln.state = Modified
			l.hit(now, ln, o)
			return
		default:
			// Write to S or O: upgrade via GetM, keeping the line.
			l.Stats.Upgrades++
			l.missUpgrade(now, ln, o)
			return
		}
	}
	l.miss(now, o)
}

func (l *L1) hit(now uint64, ln *line, o op) {
	l.Stats.Hits++
	if o.write {
		ln.version++
		l.Stats.WriteHits++
	} else {
		l.Stats.ReadHits++
	}
	ln.lastUse = now
	if o.cb != nil {
		l.delay.ScheduleTagged(now+uint64(l.cfg.L1Latency), memTag(memTagCont, l.node), 0, 0, o.cb)
	}
}

func (l *L1) missUpgrade(now uint64, ln *line, o op) {
	if len(l.mshrs) >= l.cfg.MSHRs {
		l.Stats.MSHRStalls++
		l.stalled = append(l.stalled, o)
		return
	}
	l.Stats.Misses++
	m := l.allocMSHR()
	m.addr, m.wantWrite, m.hasLine, m.acksNeed = o.addr, true, true, -1
	if o.cb != nil {
		m.waiters = append(m.waiters, o.cb)
	}
	l.mshrs[o.addr] = m
	l.send(now, l.home(o.addr), Msg{Type: MsgGetM, To: ToDir, Addr: o.addr, From: l.node})
}

func (l *L1) miss(now uint64, o op) {
	if len(l.mshrs) >= l.cfg.MSHRs {
		l.Stats.MSHRStalls++
		l.stalled = append(l.stalled, o)
		return
	}
	si := l.setIndex(o.addr)
	way := l.victim(si)
	if way < 0 {
		// Every way is reserved by an outstanding miss; retry later.
		l.Stats.MSHRStalls++
		l.stalled = append(l.stalled, o)
		return
	}
	l.Stats.Misses++
	ln := &l.sets[si][way]
	if ln.valid {
		l.evict(now, ln)
	}
	*ln = line{addr: o.addr, reserved: true}
	m := l.allocMSHR()
	m.addr, m.wantWrite, m.way, m.set, m.acksNeed = o.addr, o.write, way, si, -1
	if o.cb != nil {
		m.waiters = append(m.waiters, o.cb)
	}
	l.mshrs[o.addr] = m
	t := MsgGetS
	if o.write {
		t = MsgGetM
	}
	l.send(now, l.home(o.addr), Msg{Type: t, To: ToDir, Addr: o.addr, From: l.node})
}

// victim selects a way in set si: an invalid, unreserved way if available,
// otherwise the least recently used valid line. Returns -1 when every way
// is reserved.
func (l *L1) victim(si int) int {
	set := l.sets[si]
	best := -1
	for i := range set {
		if set[i].reserved {
			continue
		}
		if !set[i].valid {
			return i
		}
		if _, busy := l.mshrs[set[i].addr]; busy {
			// Line with an in-flight upgrade; not a legal victim.
			continue
		}
		if best < 0 || set[i].lastUse < set[best].lastUse {
			best = i
		}
	}
	return best
}

// evict writes the line back (or drops it) and leaves a write-back entry
// that subsequent accesses and racing forwards are served from.
func (l *L1) evict(now uint64, ln *line) {
	l.Stats.Evictions++
	addr := ln.addr
	var t MsgType
	switch ln.state {
	case Shared:
		t = MsgPutS
	case Exclusive:
		t = MsgPutE
	case Modified:
		t = MsgPutM
		l.Stats.DirtyEvicts++
	case Owned:
		t = MsgPutO
		l.Stats.DirtyEvicts++
	default:
		panic(fmt.Sprintf("mem: evicting line in state %s", ln.state))
	}
	e := l.allocWB()
	e.state, e.version = ln.state, ln.version
	l.wb[addr] = e
	l.send(now, l.home(addr), Msg{Type: t, To: ToDir, Addr: addr, From: l.node, Version: ln.version, Dirty: ln.state == Modified || ln.state == Owned})
}

func (l *L1) home(addr uint64) int { return l.cfg.HomeNode(addr, l.nodes) }

// Deliver handles a protocol message addressed to this L1.
func (l *L1) Deliver(now uint64, m *Msg) {
	switch m.Type {
	case MsgDataS, MsgDataE, MsgDataM:
		l.onData(now, m)
	case MsgInvAck:
		l.onInvAck(now, m)
	case MsgInv:
		l.onInv(now, m)
	case MsgFwdGetS:
		l.onFwdGetS(now, m)
	case MsgFwdGetM:
		l.onFwdGetM(now, m)
	case MsgPutAck:
		l.onPutAck(now, m)
	default:
		panic(fmt.Sprintf("mem: L1 %d cannot handle %s", l.node, m.Type))
	}
}

func (l *L1) onData(now uint64, m *Msg) {
	ms, ok := l.mshrs[m.Addr]
	if !ok {
		panic(fmt.Sprintf("mem: L1 %d data for %x without MSHR", l.node, m.Addr))
	}
	ms.gotData = true
	ms.version = m.Version
	switch m.Type {
	case MsgDataS:
		ms.dataState = Shared
	case MsgDataE:
		ms.dataState = Exclusive
	case MsgDataM:
		ms.dataState = Modified
		ms.acksNeed = m.Acks
	}
	l.tryComplete(now, ms)
}

func (l *L1) onInvAck(now uint64, m *Msg) {
	ms, ok := l.mshrs[m.Addr]
	if !ok {
		panic(fmt.Sprintf("mem: L1 %d InvAck for %x without MSHR", l.node, m.Addr))
	}
	ms.acksGot++
	l.tryComplete(now, ms)
}

func (l *L1) tryComplete(now uint64, ms *mshr) {
	if !ms.gotData {
		return
	}
	if ms.dataState == Modified && (ms.acksNeed < 0 || ms.acksGot < ms.acksNeed) {
		return
	}
	// Install the line.
	var ln *line
	if ms.hasLine {
		ln = l.lookup(ms.addr)
		if ln == nil {
			// The S line was invalidated while the upgrade was in flight;
			// reinstall in a fresh way.
			si := l.setIndex(ms.addr)
			way := l.victim(si)
			if way < 0 {
				// Extremely rare: every way reserved. Retry next cycle.
				l.delay.ScheduleTagged(now+1, memTag(memTagTryComplete, l.node), ms.addr, 0, func(t uint64) { l.tryComplete(t, ms) })
				return
			}
			v := &l.sets[si][way]
			if v.valid {
				l.evict(now, v)
			}
			*v = line{addr: ms.addr}
			ln = v
		}
	} else {
		ln = &l.sets[ms.set][ms.way]
		if !ln.reserved || ln.addr != ms.addr {
			panic("mem: reserved way clobbered")
		}
	}
	ln.valid = true
	ln.reserved = false
	ln.addr = ms.addr
	ln.state = ms.dataState
	ln.version = ms.version
	ln.lastUse = now
	if ms.wantWrite {
		if ln.state != Modified {
			panic(fmt.Sprintf("mem: write completed with state %s", ln.state))
		}
		ln.version++
	}
	delete(l.mshrs, ms.addr)
	// Tell the directory the transaction is complete.
	l.send(now, l.home(ms.addr), Msg{Type: MsgUnblock, To: ToDir, Addr: ms.addr, From: l.node})
	// Wake waiters and replay deferred operations.
	for _, cb := range ms.waiters {
		l.delay.ScheduleTagged(now+1, memTag(memTagCont, l.node), 0, 0, cb)
	}
	for _, o := range ms.deferred {
		def := o
		l.delay.ScheduleTagged(now+1, memTag(memTagAccess, l.node), def.addr, opFlags(def), func(t uint64) { l.access(t, def) })
	}
	l.freeMSHR(ms)
	l.replayStalled(now)
}

// replayStalled retries ops that were waiting for MSHR/way resources.
func (l *L1) replayStalled(now uint64) {
	if len(l.stalled) == 0 {
		return
	}
	pending := l.stalled
	l.stalled = nil
	for _, o := range pending {
		def := o
		l.delay.ScheduleTagged(now+1, memTag(memTagAccess, l.node), def.addr, opFlags(def), func(t uint64) { l.access(t, def) })
	}
}

func (l *L1) onInv(now uint64, m *Msg) {
	l.Stats.InvsReceived++
	if ln := l.lookup(m.Addr); ln != nil {
		switch ln.state {
		case Shared:
			ln.valid = false
		case Invalid:
			// reserved placeholder; leave it
		default:
			panic(fmt.Sprintf("mem: L1 %d Inv in state %s", l.node, ln.state))
		}
	}
	// An upgrade in flight may lose its S copy here; tryComplete detects
	// the missing line and reinstalls from the arriving data.
	// Always ack: the requester is counting.
	l.send(now, m.Req, Msg{Type: MsgInvAck, To: ToL1, Addr: m.Addr, From: l.node})
}

func (l *L1) onFwdGetS(now uint64, m *Msg) {
	l.Stats.FwdsServed++
	if ln := l.lookup(m.Addr); ln != nil && ln.valid {
		var dirty bool
		switch ln.state {
		case Modified:
			ln.state = Owned
			dirty = true
		case Owned:
			dirty = true
		case Exclusive:
			ln.state = Shared
		default:
			panic(fmt.Sprintf("mem: L1 %d FwdGetS in state %s", l.node, ln.state))
		}
		l.send(now, m.Req, Msg{Type: MsgDataS, To: ToL1, Addr: m.Addr, From: l.node, Version: ln.version})
		l.send(now, l.home(m.Addr), Msg{Type: MsgFwdNotify, To: ToDir, Addr: m.Addr, From: l.node, Req: m.Req, Dirty: dirty})
		return
	}
	if e, ok := l.wb[m.Addr]; ok {
		dirty := e.state == Modified || e.state == Owned
		l.send(now, m.Req, Msg{Type: MsgDataS, To: ToL1, Addr: m.Addr, From: l.node, Version: e.version})
		l.send(now, l.home(m.Addr), Msg{Type: MsgFwdNotify, To: ToDir, Addr: m.Addr, From: l.node, Req: m.Req, Dirty: dirty})
		return
	}
	panic(fmt.Sprintf("mem: L1 %d FwdGetS for %x with no data", l.node, m.Addr))
}

func (l *L1) onFwdGetM(now uint64, m *Msg) {
	l.Stats.FwdsServed++
	if ln := l.lookup(m.Addr); ln != nil && ln.valid {
		switch ln.state {
		case Modified, Owned, Exclusive:
		default:
			panic(fmt.Sprintf("mem: L1 %d FwdGetM in state %s", l.node, ln.state))
		}
		l.send(now, m.Req, Msg{Type: MsgDataM, To: ToL1, Addr: m.Addr, From: l.node, Version: ln.version, Acks: m.Acks})
		ln.valid = false
		return
	}
	if e, ok := l.wb[m.Addr]; ok {
		l.send(now, m.Req, Msg{Type: MsgDataM, To: ToL1, Addr: m.Addr, From: l.node, Version: e.version, Acks: m.Acks})
		return
	}
	panic(fmt.Sprintf("mem: L1 %d FwdGetM for %x with no data", l.node, m.Addr))
}

func (l *L1) onPutAck(now uint64, m *Msg) {
	e, ok := l.wb[m.Addr]
	if !ok {
		panic(fmt.Sprintf("mem: L1 %d PutAck for %x without wb entry", l.node, m.Addr))
	}
	delete(l.wb, m.Addr)
	for _, o := range e.waiters {
		def := o
		l.delay.ScheduleTagged(now+1, memTag(memTagAccess, l.node), def.addr, opFlags(def), func(t uint64) { l.access(t, def) })
	}
	l.freeWB(e)
	l.replayStalled(now)
}
