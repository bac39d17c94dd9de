package kernel

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// Checkpoint timer tags. Every action pending on the kernel's delay queue
// is one of these five per-thread timers; the tag's low byte is the kind
// and the rest the owning node, so a restored queue can rebind each saved
// action to the owning client's bound callback.
const (
	tagSpinTick = 1 + iota
	tagReqTimeout
	tagRecheck
	tagSleepPrep
	tagWake
)

// timerTag packs a timer kind and owning node into a delay-queue tag.
func timerTag(kind, node int) uint32 { return uint32(kind) | uint32(node)<<8 }

// resolveTimer maps a saved delay-queue tag back to the owning client's
// bound callback (the DelayQueue.RestoreActions resolver).
func (s *System) resolveTimer(tag uint32, _, _ uint64) (func(uint64), func(now, a, b uint64)) {
	node := int(tag >> 8)
	if node >= len(s.clients) {
		return nil, nil
	}
	c := s.client(node)
	switch tag & 0xff {
	case tagSpinTick:
		return nil, c.spinFn
	case tagReqTimeout:
		return nil, c.reqTimeoutFn
	case tagRecheck:
		return nil, c.recheckFn
	case tagSleepPrep:
		return nil, c.sleepPrepFn
	case tagWake:
		return nil, c.wakeFn
	}
	return nil, nil
}

// TotalLockCalls sums the started lock acquisitions across all threads.
// Warm-start forking snapshots only at cycles where this is still zero —
// before any thread has touched a lock, the platform state is independent
// of the lock protocol under test.
func (s *System) TotalLockCalls() uint64 {
	var n uint64
	for _, c := range s.clients {
		if c != nil {
			n += c.LockCalls
		}
	}
	return n
}

// Inert reports whether the kernel holds no dynamic state at all: no
// thread ever started an acquisition, nothing is pending and no message is
// live. An inert kernel is indistinguishable from a freshly constructed
// one, which is what lets warm-start forking restore a pre-first-lock
// prefix snapshot into a platform running a different lock protocol.
func (s *System) Inert() bool {
	return s.TotalLockCalls() == 0 && s.Pending() == 0 && s.msgs.Live() == 0
}

// SaveMsg serializes the pooled protocol message behind ref. It is the
// payload hook the NoC snapshot calls for each in-flight PayloadKernel
// packet; the message slab itself is never serialized (live messages are
// re-interned canonically on restore).
func (s *System) SaveMsg(w *checkpoint.Writer, ref uint32) {
	m := s.msgs.At(ref)
	w.U8(uint8(m.Type))
	w.U8(uint8(m.To))
	w.Int(m.Lock)
	w.Int(m.From)
	w.Int(m.Thread)
	w.Int(m.RTR)
	w.Int(m.Prog)
	w.U64(m.AcquiredAt)
	w.U64(m.PktID)
	w.U64(m.ReqPktID)
}

// LoadMsg re-interns one serialized message into the message slab and
// returns its new ref (stamped into the carrying packet's PayloadRef). It
// rejects a message whose sender or thread is not a node: its receiver
// would answer it through the NoC.
func (s *System) LoadMsg(r *checkpoint.Reader) (uint32, error) {
	ref, m := s.msgs.Alloc()
	m.Type = MsgType(r.U8())
	m.To = Target(r.U8())
	m.Lock = r.Int()
	m.From = r.Int()
	m.Thread = r.Int()
	m.RTR = r.Int()
	m.Prog = r.Int()
	m.AcquiredAt = r.U64()
	m.PktID = r.U64()
	m.ReqPktID = r.U64()
	m.ref = ref
	if err := checkThreads(len(s.clients), false, m.From, m.Thread); err != nil && r.Err() == nil {
		return 0, fmt.Errorf("kernel: %s message: %w", m.Type, err)
	}
	return ref, r.Err()
}

// checkThreads returns an error unless every id is a thread of an n-node
// mesh (thread i runs on node i), or -1 where none allows one.
func checkThreads(n int, none bool, ids ...int) error {
	for _, id := range ids {
		if (id < 0 || id >= n) && !(none && id == -1) {
			return fmt.Errorf("thread %d outside the %d nodes", id, n)
		}
	}
	return nil
}

// SnapshotTo writes the kernel's complete dynamic state: the timer queue
// (as tagged actions), every client's acquisition state (a node that never
// built its client as a fresh client's record) and every controller's
// lock table.
func (s *System) SnapshotTo(w *checkpoint.Writer) error {
	seq, actions, err := s.delay.SaveActions()
	if err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	w.Begin("kernel")
	w.String(s.proto.Name())
	w.U64(seq)
	w.Len(len(actions))
	for _, a := range actions {
		w.U64(a.At)
		w.U64(a.Seq)
		w.U32(a.Tag)
		w.U64(a.A)
		w.U64(a.B)
	}
	w.Len(len(s.clients))
	for _, c := range s.clients {
		if c == nil {
			w.Raw(s.freshClientRecord())
		} else {
			c.snapshotTo(w)
		}
	}
	w.Len(len(s.Controllers))
	for _, c := range s.Controllers {
		c.snapshotTo(w)
	}
	w.End()
	return nil
}

// RestoreFrom overwrites a freshly constructed system's dynamic state
// with a snapshot written by SnapshotTo under the same configuration,
// building only the clients whose records differ from a fresh one's.
// In-progress acquisitions come back without their completion
// continuation; the platform rebinds those via PendingAcquisitions /
// RebindLockContinuation before resuming.
func (s *System) RestoreFrom(r *checkpoint.Reader) error {
	r.Begin("kernel")
	if name := r.String(); r.Err() == nil && name != s.proto.Name() {
		return fmt.Errorf("kernel: snapshot protocol %q, system runs %q", name, s.proto.Name())
	}
	seq := r.U64()
	n := r.Len()
	saved := make([]sim.SavedAction, 0, n)
	for i := 0; i < n; i++ {
		saved = append(saved, sim.SavedAction{
			At: r.U64(), Seq: r.U64(), Tag: r.U32(), A: r.U64(), B: r.U64(),
		})
	}
	nc := r.Len()
	if r.Err() == nil && nc != len(s.clients) {
		return fmt.Errorf("kernel: snapshot has %d clients, system %d", nc, len(s.clients))
	}
	for node, c := range s.clients {
		if c == nil && r.Consume(s.freshClientRecord()) {
			continue // never used: the node stays without a client
		}
		s.client(node).restoreFrom(r)
	}
	nctl := r.Len()
	if r.Err() == nil && nctl != len(s.Controllers) {
		return fmt.Errorf("kernel: snapshot has %d controllers, system %d", nctl, len(s.Controllers))
	}
	for _, c := range s.Controllers {
		if err := c.restoreFrom(r, len(s.clients)); err != nil {
			return err
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return err
	}
	return s.delay.RestoreActions(seq, saved, s.resolveTimer)
}

// freshClientRecord returns the checkpoint record of a never-used client,
// encoded once from a freshly built one. An unbuilt client is written as
// exactly these bytes, and a restore builds a client only for a record
// that differs, so snapshot bytes do not depend on which nodes built
// their client.
func (s *System) freshClientRecord() []byte {
	if s.freshClient == nil {
		w := checkpoint.NewWriter()
		newClient(&s.Cfg, 0, len(s.clients), s.proto.NewWaitPolicy(), nil, s.CumHeld, &s.delay).snapshotTo(w)
		s.freshClient = w.Snapshot().Data
	}
	return s.freshClient
}

// PendingAcquisitions returns the threads whose restored in-progress
// acquisition had a completion continuation that must be rebound.
func (s *System) PendingAcquisitions() []int {
	var out []int
	for _, c := range s.clients {
		if c != nil && c.cur != nil && c.cur.needsCb {
			out = append(out, c.node)
		}
	}
	return out
}

// RebindLockContinuation installs cb as thread's pending acquisition
// continuation (runs when the restored acquisition is granted).
func (s *System) RebindLockContinuation(thread int, cb func(now uint64)) {
	c := s.clients[thread]
	if c == nil || c.cur == nil {
		panic(fmt.Sprintf("kernel: rebind on thread %d with no acquisition", thread))
	}
	c.cur.cb = cb
	c.cur.needsCb = false
}

// snapshotTo writes one client's dynamic state.
func (c *Client) snapshotTo(w *checkpoint.Writer) {
	rtr, prog, set := c.Regs.State()
	w.Int(rtr)
	w.Int(prog)
	w.Bool(set)
	w.Int(c.prog)
	w.U8(uint8(c.state))
	w.Int(c.heldLock)
	w.U64(c.acquired)
	w.U64(c.gen)
	w.U64(c.stateSince)
	w.U64(c.wp.SaveState())
	for _, v := range []uint64{
		c.Acquisitions, c.SpinAcquires, c.SleepAcquires, c.TotalRetries,
		c.TotalSleeps, c.LockCalls, c.ReqTimeouts, c.SleepRechecks,
		c.DupGrants, c.StaleFails, c.StaleWakeups,
	} {
		w.U64(v)
	}
	w.Bool(c.cur != nil)
	if ctx := c.cur; ctx != nil {
		w.Int(ctx.lock)
		w.U64(ctx.start)
		w.U64(ctx.h0)
		w.Int(ctx.budget)
		w.Bool(ctx.outstanding)
		w.Bool(ctx.pendingNotify)
		w.Int(ctx.retries)
		w.Int(ctx.sleeps)
		w.Bool(ctx.everSlept)
		w.Bool(ctx.wakePending)
		w.Bool(ctx.timerArmed)
		w.U64(ctx.reqSeq)
		w.U64(ctx.backoff)
		w.U64(ctx.recheckWait)
		w.Bool(ctx.cb != nil)
	}
}

// restoreFrom overwrites one client's dynamic state.
func (c *Client) restoreFrom(r *checkpoint.Reader) {
	rtr := r.Int()
	prog := r.Int()
	set := r.Bool()
	c.Regs.SetState(rtr, prog, set)
	c.prog = r.Int()
	c.state = ThreadState(r.U8())
	c.heldLock = r.Int()
	c.acquired = r.U64()
	c.gen = r.U64()
	c.stateSince = r.U64()
	c.wp.LoadState(r.U64())
	for _, p := range []*uint64{
		&c.Acquisitions, &c.SpinAcquires, &c.SleepAcquires, &c.TotalRetries,
		&c.TotalSleeps, &c.LockCalls, &c.ReqTimeouts, &c.SleepRechecks,
		&c.DupGrants, &c.StaleFails, &c.StaleWakeups,
	} {
		*p = r.U64()
	}
	c.cur = nil
	if r.Bool() {
		ctx := &acquireCtx{}
		ctx.lock = r.Int()
		ctx.start = r.U64()
		ctx.h0 = r.U64()
		ctx.budget = r.Int()
		ctx.outstanding = r.Bool()
		ctx.pendingNotify = r.Bool()
		ctx.retries = r.Int()
		ctx.sleeps = r.Int()
		ctx.everSlept = r.Bool()
		ctx.wakePending = r.Bool()
		ctx.timerArmed = r.Bool()
		ctx.reqSeq = r.U64()
		ctx.backoff = r.U64()
		ctx.recheckWait = r.U64()
		ctx.needsCb = r.Bool()
		c.cur = ctx
	}
}

// snapshotTo writes one controller's dynamic state, locks in sorted id
// order for deterministic bytes.
func (c *Controller) snapshotTo(w *checkpoint.Writer) {
	st := &c.Stats
	for _, v := range []uint64{
		st.TryLocks, st.Grants, st.Fails, st.Notifies, st.FutexWaits,
		st.FutexWakes, st.EmptyWakes, st.ImmediateWakes, st.Handoffs, st.Regrants,
	} {
		w.U64(v)
	}
	ids := make([]int, 0, len(c.locks))
	for id := range c.locks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Len(len(ids))
	for _, id := range ids {
		lv := c.locks[id]
		w.Int(id)
		w.Bool(lv.held)
		w.Int(lv.holder)
		w.Int(lv.reserved)
		w.U64(lv.acquiredAt)
		w.U64(lv.cumHeld)
		w.Ints(lv.polling)
		w.Ints(lv.asleep)
		order, aux := lv.q.SaveState()
		w.Ints(order)
		w.U64(aux)
		for _, v := range []uint64{
			lv.acquisitions, lv.fails, lv.wakes, lv.emptyWakes,
			lv.immediateWakes, lv.handoffs,
		} {
			w.U64(v)
		}
		w.Int(lv.maxDepth)
	}
}

// restoreFrom overwrites one controller's dynamic state, rejecting a lock
// record that names a thread off the n-node mesh.
func (c *Controller) restoreFrom(r *checkpoint.Reader, n int) error {
	st := &c.Stats
	for _, p := range []*uint64{
		&st.TryLocks, &st.Grants, &st.Fails, &st.Notifies, &st.FutexWaits,
		&st.FutexWakes, &st.EmptyWakes, &st.ImmediateWakes, &st.Handoffs, &st.Regrants,
	} {
		*p = r.U64()
	}
	c.locks = make(map[int]*lockVar)
	nl := r.Len()
	for i := 0; i < nl && r.Err() == nil; i++ {
		id := r.Int()
		lv := c.lock(id)
		lv.held = r.Bool()
		lv.holder = r.Int()
		lv.reserved = r.Int()
		lv.acquiredAt = r.U64()
		lv.cumHeld = r.U64()
		lv.polling = r.Ints()
		lv.asleep = r.Ints()
		order := r.Ints()
		aux := r.U64()
		lv.q.LoadState(order, aux)
		for _, p := range []*uint64{
			&lv.acquisitions, &lv.fails, &lv.wakes, &lv.emptyWakes,
			&lv.immediateWakes, &lv.handoffs,
		} {
			*p = r.U64()
		}
		lv.maxDepth = r.Int()
		err := checkThreads(n, true, lv.holder, lv.reserved)
		for _, ids := range [][]int{lv.polling, lv.asleep, order} {
			err = cmp.Or(err, checkThreads(n, false, ids...))
		}
		if err != nil && r.Err() == nil {
			return fmt.Errorf("kernel: node %d lock %d: %w", c.node, id, err)
		}
	}
	return r.Err()
}
