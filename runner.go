package repro

import (
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// init installs the platform's cell runner into the experiments package,
// which cannot import this package directly.
func init() { experiments.InstallRunner(cellRunner) }

// Experiments re-exports the experiment options type for cmd binaries and
// library users.
type Experiments = experiments.Options

// cellRunner is the one place a grid cell becomes a simulation: it
// builds the cell's Config, runs it under the wall-clock guard and panic
// net, and collects the run's views (see System.cellResult). With o.Warm a
// forkable cell restores a snapshot of its protocol-independent prefix,
// built once per prefix key (single-flight across concurrent callers)
// or loaded from o.Cache. Prefix construction is best-effort: a cell
// whose prefix cannot be built, or whose cached snapshot does not
// restore, runs cold. The returned function is safe for concurrent use.
func cellRunner(o experiments.RunOptions) func(experiments.Cell) (experiments.CellResult, error) {
	type prefixEntry struct {
		once  sync.Once
		snap  *checkpoint.Snapshot
		cycle uint64
	}
	var mu sync.Mutex
	prefixes := map[string]*prefixEntry{}
	prefix := func(c experiments.Cell, cfg Config) *prefixEntry {
		key := c.PrefixKey()
		mu.Lock()
		e, ok := prefixes[key]
		if !ok {
			e = &prefixEntry{}
			prefixes[key] = e
		}
		mu.Unlock()
		e.once.Do(func() {
			if o.Cache != nil {
				if p, cycle, ok := o.Cache.Load(key); ok {
					if snap, ok := p.(*checkpoint.Snapshot); ok {
						e.snap, e.cycle = snap, cycle
						return
					}
				}
			}
			// The kernel is still inert at the snapshot point, so the
			// prefix restores into any protocol and level count.
			cfg.Protocol, cfg.PriorityLevels = "", 0
			snap, cycle, err := BuildPrefix(cfg)
			if err != nil {
				return
			}
			e.snap, e.cycle = snap, cycle
			if o.Cache != nil {
				o.Cache.Store(key, snap, cycle)
			}
		})
		return e
	}

	return func(c experiments.Cell) (experiments.CellResult, error) {
		cfg := Config{
			Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR, PriorityLevels: c.Levels,
			Seed: c.Seed, Protocol: c.Protocol, Workers: c.Workers,
			Trace: c.TraceThreads > 0,
		}
		if c.Faulted() {
			// The watchdog turns a fault-induced deadlock into a prompt typed
			// failure, in deterministic cycles, instead of burning the
			// MaxCycles budget.
			cfg.Recovery = &kernel.RecoveryConfig{Enabled: c.Recovery}
			cfg.Watchdog = &sim.WatchdogConfig{}
			if c.Faults.Enabled() {
				plan := c.Faults
				cfg.Faults = &plan
			}
		}
		if err := cfg.Validate(); err != nil {
			return experiments.CellResult{}, err
		}
		if o.Warm && c.Forkable() {
			// A prefix that covers no cycles saves nothing: run cold.
			if e := prefix(c, cfg); e.snap != nil && e.cycle > 0 {
				if sys, err := Restore(cfg, e.snap); err == nil {
					res, err := sys.RunWithTimeout(o.Timeout)
					r := sys.cellResult(res)
					r.PrefixCycle = e.cycle
					return r, err
				}
			}
		}
		sys, err := New(cfg)
		if err != nil {
			return experiments.CellResult{}, err
		}
		res, err := sys.RunWithTimeout(o.Timeout)
		if c.Faulted() {
			return sys.faultResult(res, err), nil
		}
		if err != nil {
			return experiments.CellResult{}, err
		}
		r := sys.cellResult(res)
		if c.TraceThreads > 0 {
			r.Timeline = sys.renderTimeline(c.TraceThreads, res.ROIFinish)
		}
		return r, nil
	}
}

// cellResult wraps a finished run's results with the metrics collector's
// BT/COH histograms and the kernel's handoff and queue-depth counters.
func (s *System) cellResult(res metrics.Results) experiments.CellResult {
	r := experiments.CellResult{Results: res, BT: s.Collector.BT, COH: s.Collector.COH}
	for _, st := range s.Kernel.LockStats(s.Engine.Now()) {
		r.Handoffs += st.Handoffs
		r.MaxQueueDepth = max(r.MaxQueueDepth, st.MaxQueueDepth)
	}
	return r
}

// faultResult folds a fault cell's run into data: a degraded run is a
// point of the sweep, not an error.
func (s *System) faultResult(res metrics.Results, err error) experiments.CellResult {
	var r experiments.CellResult
	if err != nil {
		r.Failure = err.Error()
	} else {
		r = s.cellResult(res)
	}
	r.Recovery = s.Kernel.RecoveryStats()
	if s.Faults != nil {
		r.Faults = s.Faults.SnapshotStats()
	}
	return r
}

// renderTimeline renders the first 1/8 of the run for the first threads
// threads, mirroring the paper's 3000-cycle excerpt.
func (s *System) renderTimeline(threads int, roi uint64) string {
	window := roi / 8
	if window == 0 {
		window = roi
	}
	return s.Timeline.RenderString(threads, window, max(window/60, 1))
}
