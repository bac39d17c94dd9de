package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// cellState is one cell's position in the lease lifecycle. The states
// are deliberately explicit and journaled — per the queue-lock lesson,
// ownership is a first-class, inspectable queue fact, not a side effect
// of which goroutine happens to hold the cell.
type cellState uint8

const (
	statePending  cellState = iota // eligible for leasing (after notBefore)
	stateLeased                    // owned by a worker until deadline
	stateDone                      // result journaled
	statePoisoned                  // quarantined; emitted as a failure
)

// Result is one cell's terminal outcome: either a completed simulation
// or the poison diagnostic of a quarantined cell. Err is empty for a
// completed cell.
type Result struct {
	Results metrics.Results `json:"results"`
	Err     string          `json:"err,omitempty"`
}

// Journal record shapes.
type gridRecord struct {
	Index int              `json:"i"`
	Key   string           `json:"key"`
	Cell  experiments.Cell `json:"cell"`
}

type eventRecord struct {
	Op      string `json:"op"` // lease | fail | reclaim
	Key     string `json:"key"`
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker,omitempty"`
	Error   string `json:"error,omitempty"`
}

type resultRecord struct {
	Key     string          `json:"key"`
	Results metrics.Results `json:"results"`
}

// poisonRecord is the quarantine verdict: everything a postmortem needs
// — the cell, how often it failed, the final error, and the watchdog's
// diagnostic dump when the failure carried one.
type poisonRecord struct {
	Key      string           `json:"key"`
	Cell     experiments.Cell `json:"cell"`
	Failures int              `json:"failures"`
	Attempts int              `json:"attempts"`
	Error    string           `json:"error"`
	Dump     string           `json:"dump,omitempty"`
}

// queue is the coordinator's durable cell queue: deduplicated cells,
// lease bookkeeping, retry/backoff/poison policy, ordered emission over
// the full (pre-dedup) cell list, and the spool journals that make all
// of it recoverable after a SIGKILL. All methods are safe for concurrent
// use by workers, the reclaimer and the spool adapters.
type queue struct {
	cfg *Config

	mu   sync.Mutex
	cond *sync.Cond

	// Unique cells (first occurrence order) and their lifecycle state.
	cells     []experiments.Cell
	keys      []string
	idxOf     map[string]int
	state     []cellState
	attempts  []int // lease grants, lifetime (restored from the event log)
	failures  []int // runner failures, lifetime
	notBefore []time.Time
	deadline  []time.Time
	owner     []string
	results   []metrics.Results
	errs      []string
	pend      []int // pending indices in requeue order (may hold stale entries)
	terminal  int

	stopped bool // drain requested: no new leases, in-flight cells finish
	killed  bool // chaos kill: the coordinator is "dead", journals frozen

	// Ordered emission over the original cell list.
	all    []experiments.Cell
	uniqOf []int
	next   int
	emit   func(i int, r Result)

	// Spool journals; all nil for an in-memory queue.
	events      *journal.Writer
	resultsJ    *journal.Writer
	poisonJ     *journal.Writer
	resultsPath string

	resultsThisRun int // chaos KillAfterResults trigger

	stats Stats
}

// newQueue deduplicates cells, opens (or resumes) the spool, and emits
// the already-terminal prefix of the grid in order.
func newQueue(cfg *Config, cells []experiments.Cell, emit func(i int, r Result)) (*queue, error) {
	q := &queue{cfg: cfg, all: cells, emit: emit, idxOf: map[string]int{}}
	q.cond = sync.NewCond(&q.mu)
	q.uniqOf = make([]int, len(cells))
	for i, c := range cells {
		k := c.Key()
		u, ok := q.idxOf[k]
		if !ok {
			u = len(q.cells)
			q.idxOf[k] = u
			q.cells = append(q.cells, c)
			q.keys = append(q.keys, k)
		}
		q.uniqOf[i] = u
	}
	n := len(q.cells)
	q.state = make([]cellState, n)
	q.attempts = make([]int, n)
	q.failures = make([]int, n)
	q.notBefore = make([]time.Time, n)
	q.deadline = make([]time.Time, n)
	q.owner = make([]string, n)
	q.results = make([]metrics.Results, n)
	q.errs = make([]string, n)
	q.stats.Cells = len(cells)
	q.stats.Unique = n

	if cfg.Spool != "" {
		if err := q.openSpool(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if q.state[i] == statePending {
			q.pend = append(q.pend, i)
		}
	}
	q.mu.Lock()
	q.emitLocked()
	q.mu.Unlock()
	return q, nil
}

// openSpool binds the queue to its spool directory: the grid manifest
// is written on first open and verified on resume; the result, poison
// and event journals are replayed (torn-tail tolerant) to rebuild the
// terminal states and retry counters. Leases recorded by a previous
// coordinator are void by construction — the process that granted them
// is gone — so every non-terminal cell resumes as pending.
func (q *queue) openSpool() error {
	dir := q.cfg.Spool
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gridPath := filepath.Join(dir, "grid.jsonl")
	q.resultsPath = filepath.Join(dir, "results.jsonl")

	// Manifest: verify an existing grid matches, or write a fresh one.
	var seen []string
	if err := journal.Replay(gridPath, func(line []byte) error {
		var rec gridRecord
		if err := unmarshalStrictEnough(line, &rec); err != nil {
			return journal.ErrStop
		}
		seen = append(seen, rec.Key)
		return nil
	}); err != nil {
		return err
	}
	switch {
	case len(seen) == 0:
		g, err := journal.Open(gridPath)
		if err != nil {
			return err
		}
		for i, c := range q.cells {
			if err := g.Append(gridRecord{Index: i, Key: q.keys[i], Cell: c}); err != nil {
				g.Close()
				return err
			}
		}
		if err := g.Sync(); err != nil {
			g.Close()
			return err
		}
		if err := g.Close(); err != nil {
			return err
		}
	case !sameKeys(seen, q.keys):
		return fmt.Errorf("fleet: spool %s holds a different grid (%d cells on disk, %d requested); use a fresh spool per grid", dir, len(seen), len(q.keys))
	}

	// Completed results, then poison verdicts, then the event log's
	// attempt/failure counters.
	if err := journal.Replay(q.resultsPath, func(line []byte) error {
		var rec resultRecord
		if err := unmarshalStrictEnough(line, &rec); err != nil {
			return journal.ErrStop
		}
		if i, ok := q.idxOf[rec.Key]; ok && q.state[i] == statePending {
			q.state[i] = stateDone
			q.results[i] = rec.Results
			q.terminal++
			q.stats.Restored++
		}
		return nil
	}); err != nil {
		return err
	}
	if err := journal.Replay(filepath.Join(dir, "poison.jsonl"), func(line []byte) error {
		var rec poisonRecord
		if err := unmarshalStrictEnough(line, &rec); err != nil {
			return journal.ErrStop
		}
		if i, ok := q.idxOf[rec.Key]; ok && q.state[i] == statePending {
			q.state[i] = statePoisoned
			q.errs[i] = rec.Error
			q.failures[i] = rec.Failures
			q.terminal++
			q.stats.Restored++
		}
		return nil
	}); err != nil {
		return err
	}
	if err := journal.Replay(filepath.Join(dir, "events.jsonl"), func(line []byte) error {
		var rec eventRecord
		if err := unmarshalStrictEnough(line, &rec); err != nil {
			return journal.ErrStop
		}
		i, ok := q.idxOf[rec.Key]
		if !ok {
			return nil
		}
		switch rec.Op {
		case "lease":
			if rec.Attempt > q.attempts[i] {
				q.attempts[i] = rec.Attempt
			}
		case "fail":
			q.failures[i]++
		}
		return nil
	}); err != nil {
		return err
	}

	var err error
	if q.events, err = journal.Open(filepath.Join(dir, "events.jsonl")); err != nil {
		return err
	}
	if q.resultsJ, err = journal.Open(q.resultsPath); err != nil {
		return err
	}
	if q.poisonJ, err = journal.Open(filepath.Join(dir, "poison.jsonl")); err != nil {
		return err
	}
	return nil
}

// closeJournals flushes and closes the spool journals (no-op in-memory,
// or after a chaos kill — a dead coordinator closes nothing).
func (q *queue) closeJournals() {
	q.mu.Lock()
	killed := q.killed
	q.mu.Unlock()
	for _, w := range []*journal.Writer{q.events, q.resultsJ, q.poisonJ} {
		if w == nil {
			continue
		}
		if !killed {
			_ = w.Sync()
		}
		_ = w.Close()
	}
}

// lease grants the next eligible cell to worker. block makes it wait for
// eligibility; a non-blocking call distinguishes "nothing right now"
// (ok=false, done=false) from "no lease will ever be granted this run"
// (done=true: grid terminal, drained, or killed).
func (q *queue) lease(worker string, block bool) (idx, attempt int, ok, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.killed || q.stopped || q.terminal == len(q.cells) {
			return 0, 0, false, true
		}
		now := time.Now()
		for tries := len(q.pend); tries > 0; tries-- {
			i := q.pend[0]
			q.pend = q.pend[1:]
			if q.state[i] != statePending {
				continue // stale entry (e.g. late stall completion)
			}
			if now.Before(q.notBefore[i]) {
				q.pend = append(q.pend, i) // backoff-gated; keep for later
				continue
			}
			q.state[i] = stateLeased
			q.attempts[i]++
			q.owner[i] = worker
			q.deadline[i] = now.Add(q.cfg.LeaseTTL)
			q.stats.Leases++
			if q.attempts[i] > 1 {
				q.stats.Retries++
			}
			q.journalEvent(eventRecord{Op: "lease", Key: q.keys[i], Attempt: q.attempts[i], Worker: worker})
			return i, q.attempts[i], true, false
		}
		if !block {
			return 0, 0, false, false
		}
		q.cond.Wait() // woken by completes, reclaimer ticks, drain, kill
	}
}

// heartbeat extends the lease deadline iff (worker, attempt) still owns
// the cell; a stale heartbeat from a reclaimed attempt is ignored.
func (q *queue) heartbeat(idx int, worker string, attempt int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state[idx] == stateLeased && q.owner[idx] == worker && q.attempts[idx] == attempt {
		q.deadline[idx] = time.Now().Add(q.cfg.LeaseTTL)
	}
}

// complete records a finished cell. It is idempotent and accepts late
// results from reclaimed leases: the simulation is deterministic, so
// whichever attempt lands first defines the (identical) result.
func (q *queue) complete(idx int, r metrics.Results) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.killed || q.state[idx] == stateDone || q.state[idx] == statePoisoned {
		return
	}
	q.state[idx] = stateDone
	q.results[idx] = r
	q.owner[idx] = ""
	q.terminal++
	if q.resultsJ != nil {
		_ = q.resultsJ.AppendSync(resultRecord{Key: q.keys[idx], Results: r})
	}
	q.resultsThisRun++
	if c := q.cfg.Chaos; c != nil && c.KillAfterResults > 0 && q.resultsThisRun >= c.KillAfterResults {
		q.killLocked()
		return
	}
	q.emitLocked()
	q.cond.Broadcast()
}

// killLocked is the chaos hard-kill: the coordinator stops mid-grid with
// no drain and no journal hygiene, optionally leaving a torn half-line
// on the result log — the exact residue of `kill -9` mid-append.
func (q *queue) killLocked() {
	q.killed = true
	q.stats.Killed = true
	if q.cfg.Chaos.TornTail && q.resultsPath != "" {
		if f, err := os.OpenFile(q.resultsPath, os.O_WRONLY|os.O_APPEND, 0); err == nil {
			_, _ = f.WriteString(`{"key":"torn-by-chaos","results":{`)
			_ = f.Close()
		}
	}
	q.cond.Broadcast()
}

// fail records a runner failure. Failures are a property of the cell,
// not the attempt, so even a stale failure (the lease was reclaimed
// while the runner was erroring out) advances the poison counter; only
// a current lease is requeued.
func (q *queue) fail(idx int, worker string, attempt int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.killed || q.state[idx] == stateDone || q.state[idx] == statePoisoned {
		return
	}
	q.failures[idx]++
	q.journalEvent(eventRecord{Op: "fail", Key: q.keys[idx], Attempt: attempt, Worker: worker, Error: err.Error()})
	if q.failures[idx] >= q.cfg.MaxFailures {
		q.poisonLocked(idx, err)
		return
	}
	if q.state[idx] == stateLeased && q.owner[idx] == worker && q.attempts[idx] == attempt {
		q.requeueLocked(idx)
	}
	q.cond.Broadcast()
}

// poisonLocked quarantines a cell: journal the verdict (with the
// watchdog's diagnostic dump when the error carries one), emit it as a
// terminal failure, and let the rest of the grid proceed.
func (q *queue) poisonLocked(idx int, err error) {
	rec := poisonRecord{
		Key: q.keys[idx], Cell: q.cells[idx],
		Failures: q.failures[idx], Attempts: q.attempts[idx],
		Error: err.Error(),
	}
	var werr *sim.WatchdogError
	if errors.As(err, &werr) {
		rec.Dump = werr.Dump
	}
	q.state[idx] = statePoisoned
	q.errs[idx] = rec.Error
	q.owner[idx] = ""
	q.terminal++
	q.stats.Poisoned++
	if q.poisonJ != nil {
		_ = q.poisonJ.AppendSync(rec)
	}
	q.emitLocked()
	q.cond.Broadcast()
}

// reclaimExpired requeues (with exponential backoff) every lease whose
// deadline has passed — the owner crashed or stalled past its TTL. A
// cell whose leases keep expiring is eventually poisoned too: a grid
// must terminate even if one cell wedges every worker that touches it.
func (q *queue) reclaimExpired(now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.killed {
		return
	}
	for i := range q.cells {
		if q.state[i] != stateLeased || !q.deadline[i].Before(now) {
			continue
		}
		q.stats.Reclaims++
		q.journalEvent(eventRecord{Op: "reclaim", Key: q.keys[i], Attempt: q.attempts[i], Worker: q.owner[i]})
		if q.attempts[i] >= q.cfg.MaxAttempts {
			q.poisonLocked(i, fmt.Errorf("fleet: lease expired on all %d attempts (workers keep crashing or wedging on this cell)", q.attempts[i]))
			continue
		}
		q.requeueLocked(i)
	}
	// Always wake waiters: a backoff gate may have opened even if no
	// lease expired on this sweep.
	q.cond.Broadcast()
}

// requeueLocked returns a cell to pending behind an exponential backoff
// gate: cheap immediate-ish retry first, escalating delays after — the
// Mutable-Locks adaptivity lesson applied to job scheduling.
func (q *queue) requeueLocked(idx int) {
	q.state[idx] = statePending
	q.owner[idx] = ""
	q.notBefore[idx] = time.Now().Add(q.backoff(q.attempts[idx]))
	q.pend = append(q.pend, idx)
}

// backoff is BackoffBase << (attempt-1), capped at 64x.
func (q *queue) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	if shift < 0 {
		shift = 0
	}
	return q.cfg.BackoffBase << uint(shift)
}

// drain stops new leases; in-flight cells finish and journal normally.
func (q *queue) drain() {
	q.mu.Lock()
	q.stopped = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// emitLocked streams terminal results over the original cell list in
// strict order, exactly like cmd/sweep's ordered emitter: a cell emits
// once its deduplicated representative is terminal.
func (q *queue) emitLocked() {
	if q.killed {
		return
	}
	for q.next < len(q.all) {
		u := q.uniqOf[q.next]
		if q.state[u] != stateDone && q.state[u] != statePoisoned {
			return
		}
		if q.emit != nil {
			q.emit(q.next, Result{Results: q.results[u], Err: q.errs[u]})
		}
		q.next++
	}
}

// journalEvent appends to the (unsynced) lease event log; losing the
// tail on a crash costs only retry-counter fidelity, never results.
func (q *queue) journalEvent(rec eventRecord) {
	if q.events != nil {
		_ = q.events.Append(rec)
	}
}

// snapshotLocked-free accessors used by Run and the spool adapters.

func (q *queue) finishedForever() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.killed || q.stopped || q.terminal == len(q.cells)
}

func (q *queue) wasKilled() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.killed
}

// leaseCurrent reports whether (idx, attempt) is still the live lease.
func (q *queue) leaseCurrent(idx, attempt int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state[idx] == stateLeased && q.attempts[idx] == attempt
}

// finishStats finalizes the run's stats from the terminal states.
func (q *queue) finishStats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.Completed, st.Poisoned = 0, 0
	for i := range q.cells {
		switch q.state[i] {
		case stateDone:
			st.Completed++
		case statePoisoned:
			st.Poisoned++
		}
	}
	return st
}

// sameKeys reports whether two key lists match element-wise.
func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
