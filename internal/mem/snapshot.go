package mem

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// Checkpoint timer tags for the memory system's delay queue. The low byte
// is the kind, the rest the owning node. Completion callbacks (memTagCont)
// are canonical: on the platform path every op callback is the owning
// node's thread-step continuation, so the snapshot records only that one
// exists and the restore rebinds it through the caller's resolver.
const (
	memTagCont        = 1 + iota // a completion callback (canonical per node)
	memTagTryComplete            // L1 install retry for the MSHR at addr (a)
	memTagAccess                 // L1 access replay: a = addr, b = opFlags
	memTagDirProcess             // directory L2-pipeline stage: a = addr
	memTagDramResp               // MC read completion: a = addr, b = dst
)

// memTag packs a timer kind and owning node into a delay-queue tag.
func memTag(kind, node int) uint32 { return uint32(kind) | uint32(node)<<8 }

// opFlags packs an op's serializable bits: bit 0 = write, bit 1 = has a
// completion callback.
func opFlags(o op) uint64 {
	var f uint64
	if o.write {
		f |= 1
	}
	if o.cb != nil {
		f |= 2
	}
	return f
}

// saveMsgFields writes a coherence message by value (ref excluded; the
// restore re-interns into a fresh slab slot).
func saveMsgFields(w *checkpoint.Writer, m *Msg) {
	w.U8(uint8(m.Type))
	w.U8(uint8(m.To))
	w.U64(m.Addr)
	w.Int(m.From)
	w.Int(m.Req)
	w.Int(m.Acks)
	w.U64(m.Version)
	w.Bool(m.Dirty)
	w.Bool(m.Stale)
}

// loadMsgFields reads the fields written by saveMsgFields into m.
func loadMsgFields(r *checkpoint.Reader, m *Msg) {
	m.Type = MsgType(r.U8())
	m.To = Target(r.U8())
	m.Addr = r.U64()
	m.From = r.Int()
	m.Req = r.Int()
	m.Acks = r.Int()
	m.Version = r.U64()
	m.Dirty = r.Bool()
	m.Stale = r.Bool()
}

// SaveMsg serializes the pooled coherence message behind ref (the payload
// hook the NoC snapshot calls for in-flight PayloadMem packets).
func (s *System) SaveMsg(w *checkpoint.Writer, ref uint32) {
	saveMsgFields(w, s.msgs.At(ref))
}

// LoadMsg re-interns one serialized message into the message slab and
// returns its new ref.
func (s *System) LoadMsg(r *checkpoint.Reader) (uint32, error) {
	m, err := s.internMsg(r)
	if err != nil {
		return 0, err
	}
	return m.ref, nil
}

// internMsg re-interns an in-flight or directory-held message (wait queue
// / pipeline), rejecting one whose sender or requester is not a node: a
// message's receiver answers both through the NoC.
func (s *System) internMsg(r *checkpoint.Reader) (*Msg, error) {
	ref, m := s.msgs.Alloc()
	loadMsgFields(r, m)
	m.ref = ref
	if err := checkNodes(len(s.l1s), false, m.From, m.Req); err != nil && r.Err() == nil {
		return nil, fmt.Errorf("mem: %s message: %w", m.Type, err)
	}
	return m, r.Err()
}

// checkNodes returns an error unless every id is a node of an n-node
// mesh, or -1 where none allows one.
func checkNodes(n int, none bool, ids ...int) error {
	for _, id := range ids {
		if (id < 0 || id >= n) && !(none && id == -1) {
			return fmt.Errorf("node %d outside the %d nodes", id, n)
		}
	}
	return nil
}

// SnapshotTo writes the memory hierarchy's complete dynamic state: the
// pipeline timer queue (as tagged actions), every L1's lines/MSHRs/
// write-backs (a node that never built its L1 as a fresh L1's record),
// every directory entry with its transaction and queued messages, and
// every memory controller's banks and backing store.
func (s *System) SnapshotTo(w *checkpoint.Writer) error {
	seq, actions, err := s.delay.SaveActions()
	if err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	w.Begin("mem")
	w.U64(seq)
	w.Len(len(actions))
	for _, a := range actions {
		w.U64(a.At)
		w.U64(a.Seq)
		w.U32(a.Tag)
		w.U64(a.A)
		w.U64(a.B)
	}
	w.Len(len(s.l1s))
	for _, l := range s.l1s {
		if l == nil {
			w.Raw(s.freshL1Record())
		} else {
			l.snapshotTo(w)
		}
	}
	w.Len(len(s.Dirs))
	for _, d := range s.Dirs {
		d.snapshotTo(w)
	}
	w.Len(len(s.Cfg.MCNodes))
	for _, n := range s.Cfg.MCNodes {
		s.MCs[n].snapshotTo(w)
	}
	w.End()
	return nil
}

// RestoreFrom overwrites a freshly constructed system's dynamic state,
// building only the L1s whose records differ from a fresh one's. contFor
// resolves the canonical completion continuation of a node's thread
// (every op callback on the platform path); directory-held and in-flight
// messages are re-interned into the fresh message slab.
func (s *System) RestoreFrom(r *checkpoint.Reader, contFor func(node int) func(now uint64)) error {
	r.Begin("mem")
	seq := r.U64()
	n := r.Len()
	saved := make([]sim.SavedAction, 0, n)
	for i := 0; i < n; i++ {
		saved = append(saved, sim.SavedAction{
			At: r.U64(), Seq: r.U64(), Tag: r.U32(), A: r.U64(), B: r.U64(),
		})
	}
	nl := r.Len()
	if r.Err() == nil && nl != len(s.l1s) {
		return fmt.Errorf("mem: snapshot has %d L1s, system %d", nl, len(s.l1s))
	}
	for node, l := range s.l1s {
		if l == nil && r.Consume(s.freshL1Record()) {
			continue // never used: the node stays without an L1
		}
		s.L1(node).restoreFrom(r, contFor)
	}
	nd := r.Len()
	if r.Err() == nil && nd != len(s.Dirs) {
		return fmt.Errorf("mem: snapshot has %d directories, system %d", nd, len(s.Dirs))
	}
	for _, d := range s.Dirs {
		if err := d.restoreFrom(r, s); err != nil {
			return err
		}
	}
	nm := r.Len()
	if r.Err() == nil && nm != len(s.Cfg.MCNodes) {
		return fmt.Errorf("mem: snapshot has %d MCs, system %d", nm, len(s.Cfg.MCNodes))
	}
	for _, node := range s.Cfg.MCNodes {
		s.MCs[node].restoreFrom(r)
	}
	r.End()
	if err := r.Err(); err != nil {
		return err
	}
	return s.delay.RestoreActions(seq, saved, s.timerResolver(contFor))
}

// freshL1Record returns the checkpoint record of a never-used L1, encoded
// once from a freshly built one. An unbuilt L1 is written as exactly these
// bytes, and a restore builds an L1 only for a record that differs, so
// snapshot bytes do not depend on which nodes built their L1.
func (s *System) freshL1Record() []byte {
	if s.freshL1 == nil {
		w := checkpoint.NewWriter()
		newL1(&s.Cfg, 0, len(s.l1s), nil, &s.delay).snapshotTo(w)
		s.freshL1 = w.Snapshot().Data
	}
	return s.freshL1
}

// timerResolver rebinds saved delay-queue actions to live callbacks.
func (s *System) timerResolver(contFor func(node int) func(now uint64)) func(tag uint32, a, b uint64) (func(uint64), func(now, a, b uint64)) {
	return func(tag uint32, _, b uint64) (func(uint64), func(now, a, b uint64)) {
		node := int(tag >> 8)
		if node >= len(s.l1s) {
			return nil, nil
		}
		switch tag & 0xff {
		case memTagCont:
			return contFor(node), nil
		case memTagTryComplete:
			l := s.L1(node)
			return nil, func(t, addr, _ uint64) {
				if ms, ok := l.mshrs[addr]; ok {
					l.tryComplete(t, ms)
				}
			}
		case memTagAccess:
			l := s.L1(node)
			return nil, func(t, addr, flags uint64) {
				var cb func(now uint64)
				if flags&2 != 0 {
					cb = contFor(node)
				}
				l.access(t, op{addr: addr, write: flags&1 != 0, cb: cb})
			}
		case memTagDirProcess:
			return nil, s.Dirs[node].processFn
		case memTagDramResp:
			if mc, ok := s.MCs[node]; ok && b < uint64(len(s.l1s)) {
				return nil, mc.respFn
			}
		}
		return nil, nil
	}
}

// saveOp writes one queued memory op (the callback as a has-bit).
func saveOp(w *checkpoint.Writer, o op) {
	w.U64(o.addr)
	w.U64(opFlags(o))
}

// loadOp rebuilds a queued memory op with the canonical continuation.
func loadOp(r *checkpoint.Reader, cont func(now uint64)) op {
	addr := r.U64()
	flags := r.U64()
	o := op{addr: addr, write: flags&1 != 0}
	if flags&2 != 0 {
		o.cb = cont
	}
	return o
}

// snapshotTo writes one L1's dynamic state (maps in sorted key order).
func (l *L1) snapshotTo(w *checkpoint.Writer) {
	st := &l.Stats
	for _, v := range []uint64{
		st.Hits, st.Misses, st.ReadHits, st.WriteHits, st.Upgrades,
		st.Evictions, st.DirtyEvicts, st.InvsReceived, st.FwdsServed,
		st.MSHRStalls, st.AccessesTotal,
	} {
		w.U64(v)
	}
	for _, set := range l.sets {
		for i := range set {
			ln := &set[i]
			w.U64(ln.addr)
			w.U8(uint8(ln.state))
			w.U64(ln.version)
			w.U64(ln.lastUse)
			w.Bool(ln.valid)
			w.Bool(ln.reserved)
		}
	}
	addrs := make([]uint64, 0, len(l.mshrs))
	for a := range l.mshrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Len(len(addrs))
	for _, a := range addrs {
		m := l.mshrs[a]
		w.U64(m.addr)
		w.Bool(m.wantWrite)
		w.Bool(m.hasLine)
		w.Int(m.way)
		w.Int(m.set)
		w.Bool(m.gotData)
		w.U8(uint8(m.dataState))
		w.U64(m.version)
		w.Int(m.acksNeed)
		w.Int(m.acksGot)
		w.Len(len(m.waiters))
		w.Len(len(m.deferred))
		for _, o := range m.deferred {
			saveOp(w, o)
		}
	}
	addrs = addrs[:0]
	for a := range l.wb {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Len(len(addrs))
	for _, a := range addrs {
		e := l.wb[a]
		w.U64(a)
		w.U8(uint8(e.state))
		w.U64(e.version)
		w.Len(len(e.waiters))
		for _, o := range e.waiters {
			saveOp(w, o)
		}
	}
	w.Len(len(l.stalled))
	for _, o := range l.stalled {
		saveOp(w, o)
	}
}

// restoreFrom overwrites one L1's dynamic state.
func (l *L1) restoreFrom(r *checkpoint.Reader, contFor func(node int) func(now uint64)) {
	cont := contFor(l.node)
	st := &l.Stats
	for _, p := range []*uint64{
		&st.Hits, &st.Misses, &st.ReadHits, &st.WriteHits, &st.Upgrades,
		&st.Evictions, &st.DirtyEvicts, &st.InvsReceived, &st.FwdsServed,
		&st.MSHRStalls, &st.AccessesTotal,
	} {
		*p = r.U64()
	}
	for _, set := range l.sets {
		for i := range set {
			ln := &set[i]
			ln.addr = r.U64()
			ln.state = LineState(r.U8())
			ln.version = r.U64()
			ln.lastUse = r.U64()
			ln.valid = r.Bool()
			ln.reserved = r.Bool()
		}
	}
	l.mshrs = make(map[uint64]*mshr)
	n := r.Len()
	for i := 0; i < n; i++ {
		m := l.allocMSHR()
		m.addr = r.U64()
		m.wantWrite = r.Bool()
		m.hasLine = r.Bool()
		m.way = r.Index(l.cfg.L1Ways)
		m.set = r.Index(len(l.sets))
		m.gotData = r.Bool()
		m.dataState = LineState(r.U8())
		m.version = r.U64()
		m.acksNeed = r.Int()
		m.acksGot = r.Int()
		nw := r.Len()
		for j := 0; j < nw; j++ {
			m.waiters = append(m.waiters, cont)
		}
		nd := r.Len()
		for j := 0; j < nd; j++ {
			m.deferred = append(m.deferred, loadOp(r, cont))
		}
		l.mshrs[m.addr] = m
	}
	l.wb = make(map[uint64]*wbEntry)
	n = r.Len()
	for i := 0; i < n; i++ {
		addr := r.U64()
		e := l.allocWB()
		e.state, e.version = LineState(r.U8()), r.U64()
		nw := r.Len()
		for j := 0; j < nw; j++ {
			e.waiters = append(e.waiters, loadOp(r, cont))
		}
		l.wb[addr] = e
	}
	l.stalled = nil
	n = r.Len()
	for i := 0; i < n; i++ {
		l.stalled = append(l.stalled, loadOp(r, cont))
	}
}

// snapshotTo writes one directory's dynamic state: entries (sorted by
// address) with their transactions and retained messages, and the L2 set
// occupancy lists in their exact FIFO order (eviction order depends on it).
func (d *Directory) snapshotTo(w *checkpoint.Writer) {
	st := &d.Stats
	for _, v := range []uint64{
		st.GetS, st.GetM, st.Puts, st.StalePuts, st.Forwards,
		st.Invalidations, st.DramFetches, st.QueuedReqs, st.L2Evictions,
		st.L2Overflows,
	} {
		w.U64(v)
	}
	addrs := make([]uint64, 0, len(d.entries))
	for a := range d.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Len(len(addrs))
	for _, a := range addrs {
		e := d.entries[a]
		w.U64(a)
		w.U8(uint8(e.state))
		w.Int(e.owner)
		for _, word := range e.sharers {
			w.U64(word)
		}
		w.Bool(e.inL2)
		w.U64(e.version)
		w.Bool(e.busy)
		w.Int(e.txn.req)
		w.Bool(e.txn.isGetM)
		w.Bool(e.txn.needNotify)
		w.Bool(e.txn.gotNotify)
		w.Bool(e.txn.notifyDirty)
		w.Bool(e.txn.gotUnblock)
		w.Bool(e.txn.waitingDram)
		w.Len(len(e.queue))
		for _, m := range e.queue {
			saveMsgFields(w, m)
		}
		w.Bool(e.pending != nil)
		if e.pending != nil {
			saveMsgFields(w, e.pending)
		}
	}
	sets := make([]int, 0, len(d.l2sets))
	for set := range d.l2sets {
		sets = append(sets, set)
	}
	sort.Ints(sets)
	w.Len(len(sets))
	for _, set := range sets {
		w.Int(set)
		w.U64s(d.l2sets[set])
	}
}

// restoreFrom overwrites one directory's dynamic state, re-interning the
// retained messages into sys's fresh message slab. It rejects an entry
// whose owner, requester or sharers are not nodes.
func (d *Directory) restoreFrom(r *checkpoint.Reader, sys *System) error {
	nodes := len(sys.l1s)
	st := &d.Stats
	for _, p := range []*uint64{
		&st.GetS, &st.GetM, &st.Puts, &st.StalePuts, &st.Forwards,
		&st.Invalidations, &st.DramFetches, &st.QueuedReqs, &st.L2Evictions,
		&st.L2Overflows,
	} {
		*p = r.U64()
	}
	d.entries = make(map[uint64]*dirEntry)
	d.entryFree = nil
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		addr := r.U64()
		e := d.entry(addr)
		e.state = dirState(r.U8())
		e.owner = r.Int()
		for wi := range e.sharers {
			e.sharers[wi] = r.U64()
		}
		e.inL2 = r.Bool()
		e.version = r.U64()
		e.busy = r.Bool()
		e.txn.req = r.Int()
		e.txn.isGetM = r.Bool()
		e.txn.needNotify = r.Bool()
		e.txn.gotNotify = r.Bool()
		e.txn.notifyDirty = r.Bool()
		e.txn.gotUnblock = r.Bool()
		e.txn.waitingDram = r.Bool()
		if err := checkNodes(nodes, true, e.owner); err != nil && r.Err() == nil {
			return fmt.Errorf("mem: directory %d block %#x owner: %w", d.node, addr, err)
		}
		if err := checkNodes(nodes, false, e.txn.req); err != nil && r.Err() == nil {
			return fmt.Errorf("mem: directory %d block %#x requester: %w", d.node, addr, err)
		}
		if m := e.sharers.members(); len(m) > 0 && m[len(m)-1] >= nodes {
			return fmt.Errorf("mem: directory %d block %#x sharer %d outside the %d nodes", d.node, addr, m[len(m)-1], nodes)
		}
		nq := r.Len()
		for j := 0; j < nq && r.Err() == nil; j++ {
			m, err := sys.internMsg(r)
			if err != nil {
				return err
			}
			e.queue = append(e.queue, m)
		}
		if r.Bool() {
			m, err := sys.internMsg(r)
			if err != nil {
				return err
			}
			e.pending = m
		}
	}
	d.l2sets = make(map[int][]uint64)
	n = r.Len()
	for i := 0; i < n; i++ {
		set := r.Int()
		blocks := r.U64s()
		// Preserve the original +1-overflow capacity so occupancy tracking
		// never regrows (matching setInL2's initial sizing).
		s := make([]uint64, 0, d.cfg.L2Ways+1)
		d.l2sets[set] = append(s, blocks...)
	}
	return r.Err()
}

// snapshotTo writes one memory controller's dynamic state.
func (mc *MC) snapshotTo(w *checkpoint.Writer) {
	w.U64(mc.Stats.Reads)
	w.U64(mc.Stats.Writes)
	w.U64(mc.Stats.RowHits)
	w.U64(mc.Stats.RowMisses)
	w.Len(len(mc.banks))
	for i := range mc.banks {
		b := &mc.banks[i]
		w.U64(b.openRow)
		w.Bool(b.rowValid)
		w.U64(b.nextFree)
	}
	addrs := make([]uint64, 0, len(mc.backing))
	for a := range mc.backing {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Len(len(addrs))
	for _, a := range addrs {
		w.U64(a)
		w.U64(mc.backing[a])
	}
}

// restoreFrom overwrites one memory controller's dynamic state.
func (mc *MC) restoreFrom(r *checkpoint.Reader) {
	mc.Stats.Reads = r.U64()
	mc.Stats.Writes = r.U64()
	mc.Stats.RowHits = r.U64()
	mc.Stats.RowMisses = r.U64()
	n := r.Len()
	for i := 0; i < n && i < len(mc.banks); i++ {
		b := &mc.banks[i]
		b.openRow = r.U64()
		b.rowValid = r.Bool()
		b.nextFree = r.U64()
	}
	mc.backing = make(map[uint64]uint64)
	n = r.Len()
	for i := 0; i < n; i++ {
		a := r.U64()
		mc.backing[a] = r.U64()
	}
}
