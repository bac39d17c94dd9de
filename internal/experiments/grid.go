package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/workload"
)

// ErrInterrupted marks grid cells skipped after a stop request; the
// completed prefix of emissions has already been delivered in order.
var ErrInterrupted = errors.New("experiments: grid interrupted")

// Cell fully specifies one simulation of a sweep grid. Two cells with
// equal fields run byte-identical simulations, which is what lets RunGrid
// deduplicate them. The fields after Workers are optional views and
// fault knobs; their zero values describe a plain cell.
type Cell struct {
	Profile  workload.Profile
	Threads  int
	OCOR     bool
	Levels   int
	Seed     uint64
	Protocol string
	Workers  int

	// TraceThreads > 0 records the region timeline and renders its first
	// TraceThreads threads over the first 1/8 of the run, mirroring the
	// paper's Fig. 10 excerpt.
	TraceThreads int `json:",omitempty"`
	// A non-zero Faults plan or Recovery makes a fault cell: it runs under
	// the watchdog with lock-kernel recovery set to Recovery and the plan
	// injected (a plan that injects nothing is the healthy reference
	// point), and a failed run is data in its CellResult, not an error.
	Faults   fault.Plan
	Recovery bool `json:",omitempty"`
}

// Faulted reports whether c is a fault cell.
func (c Cell) Faulted() bool { return c.Recovery || !reflect.ValueOf(c.Faults).IsZero() }

// Forkable reports whether c may warm-start from a shared prefix
// snapshot. Trace and fault cells always run cold: a restored platform
// would lose the prefix's timeline regions and injected faults.
func (c Cell) Forkable() bool { return c.TraceThreads == 0 && !c.Faulted() }

// Key is the cell's full-configuration identity: cells with equal keys
// produce byte-identical results (the platform's determinism guarantee),
// so only one representative per key is ever simulated. Knob fields
// appear only when set, so plain cells keep their keys across versions;
// the literal |nfalse| segment is the retired unpooled-mode flag, kept so
// existing spools and prefix caches stay valid.
func (c Cell) Key() string {
	k := fmt.Sprintf("%+v|t%d|o%v|l%d|s%d|p%s|nfalse|w%d",
		c.Profile, c.Threads, c.OCOR, c.Levels, c.Seed, c.Protocol, c.Workers)
	if c.TraceThreads != 0 {
		k += fmt.Sprintf("|tr%d", c.TraceThreads)
	}
	if c.Faulted() {
		k += fmt.Sprintf("|f%+v|r%v", c.Faults, c.Recovery)
	}
	return k
}

// PrefixKey identifies the cell's protocol-independent prefix: everything
// except the lock protocol and the priority-level count. Until the first
// lock acquisition the platform never consults either, so cells sharing a
// PrefixKey can be forked from one snapshot of that shared prefix.
// OCOR stays in the key — it selects the router arbitration algorithm,
// whose pointer updates differ even while no prioritized packet exists.
func (c Cell) PrefixKey() string {
	return fmt.Sprintf("%+v|t%d|o%v|s%d|nfalse|w%d",
		c.Profile, c.Threads, c.OCOR, c.Seed, c.Workers)
}

// CellResult is one cell's outcome: the standard results plus the views
// the cell asked for.
type CellResult struct {
	Results metrics.Results
	// PrefixCycle is the cycle of the shared prefix snapshot the cell was
	// forked from; 0 means it ran from cycle zero.
	PrefixCycle uint64

	// Timeline is the rendered execution profile of a trace cell.
	Timeline string

	// Every completed run: the metrics collector's per-acquisition
	// blocking-time and competition-overhead histograms, and the lock
	// kernel's total handoffs and deepest queue.
	BT, COH       obs.LogHist
	Handoffs      uint64
	MaxQueueDepth int

	// Fault cells: injector and recovery counters, and why the run failed
	// (empty when it completed; otherwise Results and the views are zero).
	Faults   fault.Snapshot
	Recovery kernel.RecoveryStats
	Failure  string
}

// RunOptions configures a cell runner.
type RunOptions struct {
	// Warm forks each forkable cell from its protocol-independent prefix
	// snapshot, built once per prefix key and runner, instead of
	// simulating from cycle zero. Deduplication happens either way.
	Warm bool
	// Cache, when non-nil, persists prefix snapshots across runners and
	// processes (Warm only).
	Cache PrefixCache
	// Timeout is the per-cell wall-clock guard: expiry fails the cell
	// (0 = none; the panic net is always on).
	Timeout time.Duration
}

// PrefixCache persists warm-start prefixes across grid runs (e.g. a sweep
// spool). Implementations must be safe for concurrent use; Store receives
// the covered cycle alongside the opaque prefix.
type PrefixCache interface {
	Load(key string) (prefix any, cycle uint64, ok bool)
	Store(key string, prefix any, cycle uint64)
}

// newRunner builds the platform's cell runner; the root package installs
// it, since this package cannot import the platform.
var newRunner func(RunOptions) func(Cell) (CellResult, error)

// InstallRunner installs the platform's cell-runner constructor. The
// returned runner must be safe for concurrent use.
func InstallRunner(f func(RunOptions) func(Cell) (CellResult, error)) { newRunner = f }

// GridOptions configures RunGrid.
type GridOptions struct {
	// Jobs bounds concurrent simulations (0 = GOMAXPROCS); composes with
	// per-cell Workers through the shared core budget.
	Jobs int
	// Warm forks each forkable cell from its protocol-independent prefix
	// snapshot (see RunOptions.Warm).
	Warm bool
	// Stop, when non-nil and closed, makes unstarted cells fail with
	// ErrInterrupted; cells already emitted stay delivered.
	Stop <-chan struct{}
	// Cache, when non-nil, persists prefixes across runs (Warm only).
	Cache PrefixCache

	// timeout is the per-cell wall-clock guard; only fault sweeps set it,
	// from FaultOptions.Timeout.
	timeout time.Duration
}

// GridStats reports how much simulation work a RunGrid call avoided.
type GridStats struct {
	// Cells is the grid size, Unique the number actually simulated.
	Cells, Unique int
	// Forked counts unique cells that warm-started from a shared prefix;
	// PrefixesBuilt the distinct prefixes they forked from.
	Forked, PrefixesBuilt int
	// PrefixCycles sums the covered cycles of every shared prefix use: the
	// simulation work forking skipped (in cycles, not wall-clock).
	PrefixCycles uint64
}

// RunGrid runs every cell of a grid through one cell runner,
// deduplicating identical cells. Results come back in cell order; emit,
// when non-nil, streams them in cell order as they complete. A failing
// cell stops the grid with the error of the lowest failing index.
func RunGrid(cells []Cell, o GridOptions, emit func(i int, r CellResult)) ([]CellResult, GridStats, error) {
	st := GridStats{Cells: len(cells)}
	if newRunner == nil {
		return nil, st, errors.New("experiments: no runner installed")
	}
	run := newRunner(RunOptions{Warm: o.Warm, Cache: o.Cache, Timeout: o.timeout})

	// Deduplicate: uniq holds the first cell of each distinct key, in
	// first-occurrence order; uniqOf maps every cell to its representative.
	uniqOf := make([]int, len(cells))
	firstOf := map[string]int{}
	var uniq []Cell
	workers := 1
	for i, c := range cells {
		k := c.Key()
		u, ok := firstOf[k]
		if !ok {
			u = len(uniq)
			firstOf[k] = u
			uniq = append(uniq, c)
			workers = max(workers, c.Workers)
		}
		uniqOf[i] = u
	}
	st.Unique = len(uniq)

	// Emission streams in cell order: a cell is ready as soon as its
	// representative (which, by first-occurrence construction, has an
	// equal or earlier unique index) completes.
	next := 0
	ready := make([]CellResult, len(uniq))
	prefixes := map[string]bool{}
	uniqRes, err := par.Map(len(uniq), par.SharedCoreBudget(o.Jobs, workers), func(i int) (CellResult, error) {
		select {
		case <-o.Stop:
			return CellResult{}, ErrInterrupted
		default:
		}
		c := uniq[i]
		r, err := run(c)
		if err != nil {
			return r, fmt.Errorf("experiments: %s threads=%d ocor=%v levels=%d protocol=%q: %w",
				c.Profile.Name, c.Threads, c.OCOR, c.Levels, c.Protocol, err)
		}
		return r, nil
	}, func(i int, r CellResult) {
		if r.PrefixCycle > 0 {
			st.Forked++
			st.PrefixCycles += r.PrefixCycle
			prefixes[uniq[i].PrefixKey()] = true
		}
		st.PrefixesBuilt = len(prefixes)
		ready[i] = r
		for ; next < len(cells) && uniqOf[next] <= i; next++ {
			if emit != nil {
				emit(next, ready[uniqOf[next]])
			}
		}
	})
	if err != nil {
		return nil, st, err
	}
	out := make([]CellResult, len(cells))
	for i := range cells {
		out[i] = uniqRes[uniqOf[i]]
	}
	return out, st, nil
}
