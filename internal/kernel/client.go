package kernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel/protocol"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ThreadState is the locking-path state of a thread, reported to the
// recorder.
type ThreadState uint8

// Thread states on the locking path.
const (
	StateIdle      ThreadState = iota // not in a locking operation
	StateSpinning                     // spinning phase (local retry loop)
	StateSleepPrep                    // preparing to sleep (context save)
	StateSleeping                     // slept, waiting for wakeup
	StateWaking                       // woken, restoring context
	StateHolding                      // inside the critical section
)

// String implements fmt.Stringer.
func (s ThreadState) String() string {
	return [...]string{"idle", "spinning", "sleep-prep", "sleeping", "waking", "holding"}[s]
}

// AcquireEvent describes one completed lock acquisition, with the paper's
// blocking-time decomposition: BT = (others' critical sections) + COH.
type AcquireEvent struct {
	Thread, Lock int
	// Start is the first try-lock send; Granted the grant receipt.
	Start, Granted uint64
	// BT is the total blocking time (Granted - Start).
	BT uint64
	// HeldByOthers is the portion of BT during which other threads held
	// the lock (their critical-section execution).
	HeldByOthers uint64
	// COH is the competition overhead: BT - HeldByOthers.
	COH uint64
	// SpinPhase reports a low-overhead acquisition: the thread never
	// reached the sleeping phase in this window.
	SpinPhase bool
	// Retries is the number of try-lock packets sent; Sleeps the number of
	// sleep episodes.
	Retries, Sleeps int
}

// Listener receives each completed lock acquisition.
type Listener interface {
	Acquired(ev AcquireEvent)
}

type nopListener struct{}

func (nopListener) Acquired(AcquireEvent) {}

// acquireCtx is the state of one in-progress lock acquisition.
type acquireCtx struct {
	lock  int
	start uint64
	h0    uint64 // home-node cumulative hold time at start
	// budget is the remaining times of retry (RTR): it drains by one per
	// cpu_relax interval of the bounded retry loop of Algorithm 1 (local
	// polling on the cached lock variable, Fig. 4a).
	budget      int
	outstanding bool // a try-lock request is in flight
	// pendingNotify records a release notification that arrived while a
	// request was outstanding; the thread re-requests as soon as the
	// outstanding one fails.
	pendingNotify bool
	retries       int
	sleeps        int
	everSlept     bool
	// wakePending records a wakeup that arrived during sleep preparation:
	// the thread finishes the preparation and wakes immediately (the slow
	// scenario of Fig. 5a).
	wakePending bool
	// timerArmed tracks whether a cpu_relax retry timer is pending.
	timerArmed bool
	cb         func(now uint64)
	// needsCb marks a checkpoint-restored context whose completion
	// continuation has not been rebound yet (cb was serialized as a
	// has-callback bit; the owner re-installs the closure after restore).
	needsCb bool
	// Recovery state (unused while Recovery.Enabled is false).
	//
	// reqSeq numbers the try-lock requests of this acquisition so a
	// timeout armed for request k is dropped once request k+1 exists.
	reqSeq uint64
	// backoff is the current request-timeout interval; it doubles on each
	// timeout up to Recovery.MaxBackoff and resets on a served request.
	backoff uint64
	// recheckWait is the current sleep-recheck interval, doubled likewise.
	recheckWait uint64
}

// Client is the thread-side enhanced queue spinlock (Algorithms 1 and 2).
// One client per thread; thread i runs on node i.
//
// The spinning phase follows the paper's Fig. 4 operation under cache
// coherence: a failed atomic try-lock leaves the thread polling its cached
// copy of the lock variable, re-trying every cpu_relax interval and
// immediately when the home node signals a release (the invalidation of
// Fig. 4a). Each attempt burns one retry of the MAX_SPIN_COUNT budget;
// the re-try packets of all competing spinners race through the NoC,
// carrying their current RTR as priority under OCOR.
type Client struct {
	cfg   *Config
	node  int
	send  func(now uint64, dst int, m Msg, prio core.Priority)
	delay *sim.DelayQueue
	// cumHeld exposes the home controller's hold accounting for overhead
	// measurement (simulator-level instrumentation, not protocol state).
	cumHeld func(lock int, now uint64) uint64
	nodes   int
	// wp is the protocol's wait policy: the spin budget of each spinning
	// phase and its adaptation to acquisition outcomes.
	wp protocol.WaitPolicy

	// Regs models the CPU's special local registers of Algorithm 1 line 6.
	Regs core.RegisterFile
	// prog is the PCB progress field: critical sections completed.
	prog int

	state    ThreadState
	cur      *acquireCtx
	heldLock int
	acquired uint64
	// gen counts acquisitions; spin-tick timers carry the generation they
	// were armed in so ticks left over from a finished acquisition are
	// dropped without the timer having to capture its acquireCtx.
	gen uint64
	// stateSince is the cycle of the last state change (feeds the
	// watchdog's blocked-thread diagnostics).
	stateSince uint64
	// spinFn is the spin-tick callback bound once at construction; retries
	// schedule it with ScheduleArgs instead of allocating a closure per
	// cpu_relax interval.
	spinFn func(now, gen, _ uint64)
	// reqTimeoutFn and recheckFn are the recovery timer callbacks, bound
	// once like spinFn.
	reqTimeoutFn func(now, gen, seq uint64)
	recheckFn    func(now, gen, _ uint64)
	// sleepPrepFn and wakeFn are the sleep-preparation and wake-up
	// completion callbacks, bound once like spinFn; they carry the
	// generation they were armed in instead of capturing their acquireCtx,
	// which keeps every pending timer describable by a checkpoint tag.
	sleepPrepFn func(now, gen, _ uint64)
	wakeFn      func(now, gen, _ uint64)

	listener Listener
	// obs, when non-nil, receives lock lifecycle events; emission is
	// read-only and cannot perturb the protocol.
	obs *obs.Recorder

	// Stats.
	Acquisitions  uint64
	SpinAcquires  uint64
	SleepAcquires uint64
	TotalRetries  uint64
	TotalSleeps   uint64
	// LockCalls counts Lock entries (started acquisitions, completed or
	// not); warm-start forking uses the system-wide sum to find the last
	// cycle before any thread touched a lock.
	LockCalls uint64
	// Recovery stats — all zero in a fault-free run.
	ReqTimeouts   uint64 // try-lock requests re-issued after a timeout
	SleepRechecks uint64 // futex-word rechecks issued while sleeping
	DupGrants     uint64 // grants ignored (duplicate of a served request)
	StaleFails    uint64 // fails ignored (for an already-completed request)
	StaleWakeups  uint64 // wakeups ignored (thread no longer sleeping)
}

func newClient(cfg *Config, node, nodes int, wp protocol.WaitPolicy, send func(now uint64, dst int, m Msg, prio core.Priority), cumHeld func(int, uint64) uint64, dq *sim.DelayQueue) *Client {
	c := &Client{
		cfg:      cfg,
		node:     node,
		nodes:    nodes,
		wp:       wp,
		send:     send,
		cumHeld:  cumHeld,
		delay:    dq,
		state:    StateIdle,
		heldLock: -1,
		listener: nopListener{},
	}
	c.spinFn = c.spinTick
	c.reqTimeoutFn = c.reqTimeout
	c.recheckFn = c.sleepRecheck
	c.sleepPrepFn = c.sleepPrepDone
	c.wakeFn = c.wakeDone
	return c
}

// SetListener installs the event listener.
func (c *Client) SetListener(l Listener) {
	if l == nil {
		l = nopListener{}
	}
	c.listener = l
}

// Prog returns the thread's progress counter.
func (c *Client) Prog() int { return c.prog }

// State returns the thread's locking-path state.
func (c *Client) State() ThreadState { return c.state }

// Busy reports whether a lock operation is in flight (for quiescence).
func (c *Client) Busy() bool { return c.cur != nil }

func (c *Client) setState(now uint64, st ThreadState) {
	if c.state == st {
		return
	}
	c.state = st
	c.stateSince = now
	if c.obs != nil {
		c.obs.ThreadState(now, c.node, uint8(st))
	}
}

// Lock begins a queue-spinlock acquisition of lock; cb runs when the thread
// holds it. This is the pthread_mutex_lock entry point of Fig. 6.
func (c *Client) Lock(now uint64, lock int, cb func(now uint64)) {
	if c.cur != nil || c.heldLock >= 0 {
		panic(fmt.Sprintf("kernel: client %d Lock while busy (held=%d)", c.node, c.heldLock))
	}
	ctx := &acquireCtx{
		lock:   lock,
		start:  now,
		h0:     c.cumHeld(lock, now),
		budget: c.wp.SpinBudget(),
		cb:     cb,
	}
	if c.cfg.Recovery.Enabled {
		ctx.backoff = uint64(c.cfg.Recovery.RequestTimeout)
	}
	c.gen++
	c.LockCalls++
	c.cur = ctx
	c.setState(now, StateSpinning)
	if c.obs != nil {
		c.obs.SpinStart(now, c.node, lock, ctx.budget)
	}
	c.sendTry(now)
	c.scheduleSpinTick(now, ctx)
}

// sendTry issues one atomic try-lock. Per Algorithm 1, the RTR and PROG
// values are written to the core's local registers and the NI stamps them
// into the outgoing locking-request packet.
func (c *Client) sendTry(now uint64) {
	ctx := c.cur
	rtr := ctx.budget
	c.Regs.WriteLockRegs(rtr, c.prog)
	ctx.retries++
	ctx.outstanding = true
	c.TotalRetries++
	if c.cfg.Recovery.Enabled {
		// Arm the request timeout: if neither grant nor fail arrives within
		// the backoff window, re-issue the request (recovering a dropped
		// try-lock / grant / fail packet).
		ctx.reqSeq++
		c.delay.ScheduleArgsTagged(now+ctx.backoff, timerTag(tagReqTimeout, c.node), c.reqTimeoutFn, c.gen, ctx.reqSeq)
	}
	prio := c.Regs.LockPriority(c.cfg.Policy)
	c.send(now, LockHome(ctx.lock, c.nodes), Msg{
		Type: MsgTryLock, To: ToController, Lock: ctx.lock,
		From: c.node, Thread: c.node, RTR: rtr, Prog: c.prog,
	}, prio)
}

// scheduleSpinTick drains one retry of the spin budget per cpu_relax
// interval of local spinning (the bounded loop of Algorithm 1). Remote
// re-requests are triggered by release notifications; the budget expiring
// sends the thread to the sleeping phase.
func (c *Client) scheduleSpinTick(now uint64, ctx *acquireCtx) {
	if ctx.timerArmed {
		return
	}
	ctx.timerArmed = true
	c.delay.ScheduleArgsTagged(now+uint64(c.cfg.SpinInterval), timerTag(tagSpinTick, c.node), c.spinFn, c.gen, 0)
}

// spinTick is one cpu_relax retry firing. A tick armed in an earlier
// acquisition (stale generation, or the current one already completed) is
// dropped, mirroring the ctx-identity guard the capturing closure used.
func (c *Client) spinTick(t, gen, _ uint64) {
	if gen != c.gen || c.cur == nil {
		return
	}
	ctx := c.cur
	ctx.timerArmed = false
	if c.state != StateSpinning {
		return
	}
	ctx.budget--
	c.Regs.WriteLockRegs(ctx.budget, c.prog)
	if c.obs != nil {
		c.obs.RTRTick(t, c.node, ctx.lock, ctx.budget)
	}
	if ctx.budget <= 0 {
		if ctx.outstanding {
			// A final request is in flight; its outcome decides
			// between acquisition and the sleeping phase.
			return
		}
		c.goSleep(t, ctx)
		return
	}
	c.scheduleSpinTick(t, ctx)
}

// reqTimeout fires when a try-lock request has been unanswered for the
// backoff window: the request (or its reply) is presumed lost and a fresh
// one is issued with the backoff doubled. Stale timers — a different
// acquisition, a served request, or a thread that moved on to the
// sleeping phase — are dropped.
func (c *Client) reqTimeout(t, gen, seq uint64) {
	if gen != c.gen || c.cur == nil {
		return
	}
	ctx := c.cur
	if !ctx.outstanding || ctx.reqSeq != seq || c.state != StateSpinning {
		return
	}
	c.ReqTimeouts++
	if ctx.backoff < uint64(c.cfg.Recovery.MaxBackoff) {
		ctx.backoff *= 2
		if ctx.backoff > uint64(c.cfg.Recovery.MaxBackoff) {
			ctx.backoff = uint64(c.cfg.Recovery.MaxBackoff)
		}
	}
	c.sendTry(t)
}

// sleepRecheck fires while the thread sleeps: real futex sleepers are
// woken by timeouts/signals and re-check the futex word, which is what
// recovers a lost wakeup. The model re-sends FUTEX_WAIT — the controller
// answers with an immediate wake if the lock is free (or reserved for
// this thread) and dedups the wait-queue entry otherwise.
func (c *Client) sleepRecheck(t, gen, _ uint64) {
	if gen != c.gen || c.cur == nil {
		return
	}
	ctx := c.cur
	if c.state != StateSleeping {
		return
	}
	c.SleepRechecks++
	c.Regs.WriteLockRegs(0, c.prog)
	c.send(t, LockHome(ctx.lock, c.nodes), Msg{
		Type: MsgFutexWait, To: ToController, Lock: ctx.lock,
		From: c.node, Thread: c.node, RTR: 0, Prog: c.prog,
	}, c.Regs.LockPriority(c.cfg.Policy))
	if ctx.recheckWait < uint64(c.cfg.Recovery.MaxBackoff) {
		ctx.recheckWait *= 2
		if ctx.recheckWait > uint64(c.cfg.Recovery.MaxBackoff) {
			ctx.recheckWait = uint64(c.cfg.Recovery.MaxBackoff)
		}
	}
	c.delay.ScheduleArgsTagged(t+ctx.recheckWait, timerTag(tagRecheck, c.node), c.recheckFn, c.gen, 0)
}

// Deliver handles a lock-protocol message addressed to this thread.
func (c *Client) Deliver(now uint64, m *Msg) {
	switch m.Type {
	case MsgGrant:
		c.onGrant(now, m)
	case MsgFail:
		c.onFail(now, m)
	case MsgWakeup:
		c.onWakeup(now, m)
	case MsgNotify:
		c.onNotify(now, m)
	default:
		panic(fmt.Sprintf("kernel: client %d cannot handle %s", c.node, m.Type))
	}
}

func (c *Client) onGrant(now uint64, m *Msg) {
	ctx := c.cur
	if ctx == nil || ctx.lock != m.Lock {
		if c.cfg.Recovery.Enabled {
			// A duplicate grant: the original and a timeout re-issue both
			// got answered (the controller re-grants idempotently), or a
			// duplicated packet. The first copy completed the acquisition.
			c.DupGrants++
			return
		}
		panic(fmt.Sprintf("kernel: client %d spurious grant for lock %d", c.node, m.Lock))
	}
	bt := now - ctx.start
	h1 := c.cumHeld(ctx.lock, now)
	heldDuring := h1 - ctx.h0
	// Subtract our own in-flight hold (grant assigned at the home node at
	// m.AcquiredAt): only other threads' critical sections count.
	own := uint64(0)
	if now > m.AcquiredAt {
		own = now - m.AcquiredAt
	}
	heldByOthers := uint64(0)
	if heldDuring > own {
		heldByOthers = heldDuring - own
	}
	if heldByOthers > bt {
		heldByOthers = bt
	}
	ev := AcquireEvent{
		Thread:       c.node,
		Lock:         ctx.lock,
		Start:        ctx.start,
		Granted:      now,
		BT:           bt,
		HeldByOthers: heldByOthers,
		COH:          bt - heldByOthers,
		SpinPhase:    !ctx.everSlept,
		Retries:      ctx.retries,
		Sleeps:       ctx.sleeps,
	}
	c.Acquisitions++
	if ev.SpinPhase {
		c.SpinAcquires++
	} else {
		c.SleepAcquires++
	}
	c.wp.OnAcquired(ev.SpinPhase)
	if c.obs != nil {
		c.obs.Acquired(now, c.node, ctx.lock, bt, ev.COH, ev.SpinPhase, ctx.retries, ctx.sleeps, m.PktID, m.ReqPktID)
	}
	c.heldLock = ctx.lock
	c.acquired = now
	cb := ctx.cb
	c.cur = nil
	c.setState(now, StateHolding)
	c.listener.Acquired(ev)
	if cb != nil {
		cb(now)
	}
}

func (c *Client) onFail(now uint64, m *Msg) {
	ctx := c.cur
	if ctx == nil || ctx.lock != m.Lock {
		if c.cfg.Recovery.Enabled {
			// A fail for a request whose acquisition already completed
			// (e.g. the re-issued request lost the race after the original
			// was granted) — nothing to do.
			c.StaleFails++
			return
		}
		panic(fmt.Sprintf("kernel: client %d spurious fail for lock %d", c.node, m.Lock))
	}
	ctx.outstanding = false
	if c.cfg.Recovery.Enabled {
		// The request round trip is healthy again; restart the backoff.
		ctx.backoff = uint64(c.cfg.Recovery.RequestTimeout)
	}
	if c.state != StateSpinning {
		return // already heading to (or in) the sleeping phase
	}
	if ctx.budget <= 0 {
		c.goSleep(now, ctx)
		return
	}
	if ctx.pendingNotify {
		// The lock was released while this request was in flight: race
		// again immediately.
		ctx.pendingNotify = false
		c.sendTry(now)
		return
	}
	// Keep spinning locally; the next release notification triggers the
	// next remote request.
}

func (c *Client) onNotify(now uint64, m *Msg) {
	ctx := c.cur
	if ctx == nil || ctx.lock != m.Lock {
		return // stale notification; the acquisition already completed
	}
	if c.state != StateSpinning {
		return // heading to sleep; the futex path takes over
	}
	if ctx.outstanding {
		ctx.pendingNotify = true
		return
	}
	c.sendTry(now)
}

// goSleep enters the sleeping phase: register in the lock queue via
// sys_futex(FUTEX_WAIT) and pay the sleep-preparation cost.
func (c *Client) goSleep(now uint64, ctx *acquireCtx) {
	ctx.everSlept = true
	ctx.sleeps++
	c.TotalSleeps++
	ctx.pendingNotify = false
	c.setState(now, StateSleepPrep)
	if c.obs != nil {
		c.obs.FutexWait(now, c.node, ctx.lock, ctx.sleeps)
	}
	c.Regs.WriteLockRegs(0, c.prog)
	c.send(now, LockHome(ctx.lock, c.nodes), Msg{
		Type: MsgFutexWait, To: ToController, Lock: ctx.lock,
		From: c.node, Thread: c.node, RTR: 0, Prog: c.prog,
	}, c.Regs.LockPriority(c.cfg.Policy))
	c.delay.ScheduleArgsTagged(now+uint64(c.cfg.SleepPrepLatency), timerTag(tagSleepPrep, c.node), c.sleepPrepFn, c.gen, 0)
}

// sleepPrepDone fires when the sleep-preparation latency elapses. The
// generation guard is equivalent to the ctx-identity check a capturing
// closure would make: gen increments exactly once per acquireCtx, so a
// matching generation with a live cur identifies the same acquisition.
func (c *Client) sleepPrepDone(t, gen, _ uint64) {
	if gen != c.gen || c.cur == nil {
		return
	}
	ctx := c.cur
	if ctx.wakePending {
		// Woken during preparation: wake right back up (Fig. 5a slow
		// scenario), paying the full wake cost.
		c.beginWake(t, ctx)
		return
	}
	c.setState(t, StateSleeping)
	if c.cfg.Recovery.Enabled {
		ctx.recheckWait = uint64(c.cfg.Recovery.SleepRecheck)
		c.delay.ScheduleArgsTagged(t+ctx.recheckWait, timerTag(tagRecheck, c.node), c.recheckFn, c.gen, 0)
	}
}

func (c *Client) onWakeup(now uint64, m *Msg) {
	ctx := c.cur
	if ctx == nil || ctx.lock != m.Lock {
		if c.cfg.Recovery.Enabled {
			// A wakeup for an acquisition that already completed (e.g. a
			// recheck's immediate wake crossed the real wakeup in flight).
			c.StaleWakeups++
			return
		}
		panic(fmt.Sprintf("kernel: client %d spurious wakeup for lock %d", c.node, m.Lock))
	}
	switch c.state {
	case StateSleeping:
		c.beginWake(now, ctx)
	case StateSleepPrep:
		ctx.wakePending = true
	default:
		if c.cfg.Recovery.Enabled {
			// Already spinning or waking: a second wakeup (recheck race)
			// has nothing left to do.
			c.StaleWakeups++
			return
		}
		panic(fmt.Sprintf("kernel: client %d wakeup in state %s", c.node, c.state))
	}
}

func (c *Client) beginWake(now uint64, ctx *acquireCtx) {
	ctx.wakePending = false
	c.setState(now, StateWaking)
	if c.obs != nil {
		c.obs.WakeupBegin(now, c.node, ctx.lock)
	}
	c.delay.ScheduleArgsTagged(now+uint64(c.cfg.WakeLatency), timerTag(tagWake, c.node), c.wakeFn, c.gen, 0)
}

// wakeDone fires when the wake-up latency elapses; the generation guard
// matches sleepPrepDone's.
func (c *Client) wakeDone(t, gen, _ uint64) {
	if gen != c.gen || c.cur == nil {
		return
	}
	ctx := c.cur
	// Woken: retry with a fresh spinning phase (Fig. 4b).
	ctx.budget = c.wp.SpinBudget()
	ctx.outstanding = false
	c.setState(t, StateSpinning)
	c.sendTry(t)
	c.scheduleSpinTick(t, ctx)
}

// Unlock releases the held lock: atomic_release, PROG update, FUTEX_WAKE
// (Algorithm 2). This is the pthread_mutex_unlock entry point of Fig. 6.
func (c *Client) Unlock(now uint64) {
	if c.heldLock < 0 {
		panic(fmt.Sprintf("kernel: client %d Unlock without lock", c.node))
	}
	lock := c.heldLock
	c.heldLock = -1
	home := LockHome(lock, c.nodes)
	c.send(now, home, Msg{Type: MsgRelease, To: ToController, Lock: lock, From: c.node, Thread: c.node}, core.Normal)
	c.prog++
	c.Regs.WriteProg(c.prog)
	c.send(now, home, Msg{Type: MsgFutexWake, To: ToController, Lock: lock, From: c.node, Thread: c.node, Prog: c.prog},
		c.Regs.WakeupPriority(c.cfg.Policy))
	if c.obs != nil {
		c.obs.Released(now, c.node, lock, now-c.acquired)
	}
	c.setState(now, StateIdle)
}
