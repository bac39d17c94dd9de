// Command sweep runs a benchmark across a parameter grid — thread counts,
// priority levels, or seeds — and emits one CSV row per run, for
// calibration and sensitivity studies beyond the paper's figures.
//
// Identical grid cells (e.g. the baseline rows of a priority-level sweep,
// which never read the level) are simulated once, and cells sharing a
// protocol-independent prefix warm-start from one shared snapshot of that
// prefix (disable with -warm=false).
//
// With -fleet, -spool or -checkpoint-dir the grid instead runs as a
// supervised, crash-safe fleet: a durable lease-based job queue in the
// spool directory hands cells to in-process workers (-fleet, or the
// effective -j under a bare -checkpoint-dir) and to any external
// cmd/sweepd worker processes attached to -spool, with heartbeats,
// expired-lease retry, poison quarantine and a per-cell wall-clock
// watchdog (-cell-timeout). Completed cells and prefix snapshots persist
// in the spool, SIGINT/SIGTERM drain the frontier, and a rerun of the
// same grid over the same spool — even after a SIGKILL — resumes to
// byte-identical output; see internal/fleet. -checkpoint-dir is a
// spool: it names the same directory -spool would, binds to one grid
// (a grown grid needs a fresh directory), and exits 1 after the CSV when
// any cell was poisoned.
//
// Usage:
//
//	sweep -bench botss -threads 4,16,32,64
//	sweep -bench can -levels 1,2,4,8,16 -threads 64
//	sweep -bench body -seeds 5 -j 4 -checkpoint-dir body.ckpt > body.csv
//	sweep -bench body -seeds 8 -fleet 4 -spool body.spool > body.csv
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/interrupt"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/profiling"
	"repro/internal/workload"
)

// cell is one grid point of the sweep; each expands to a baseline and an
// OCOR simulation.
type cell struct {
	threads int
	levels  int
	seed    uint64
}

// sweepConfig is everything sweepRun/sweepFleet need; main fills it from
// flags.
type sweepConfig struct {
	prof     workload.Profile
	grid     []cell
	scale    float64
	jobs     int
	workers  int
	protocol string
	warm     bool
	stop     <-chan struct{}

	// Fleet mode (active when any of the three is set). spool attaches
	// external sweepd workers; ckptDir is an in-process-only spool.
	fleetWorkers int
	spool        string
	ckptDir      string
	cellTimeout  time.Duration
	fleetTune    func(*fleet.Config) // test hook: lease/poll timings, chaos
}

func (sc *sweepConfig) fleetMode() bool {
	return sc.fleetWorkers > 0 || sc.spool != "" || sc.ckptDir != ""
}

// check rejects a -checkpoint-dir that names a different spool than
// -spool: rows would silently persist in only one of them.
func (sc *sweepConfig) check() error {
	if sc.ckptDir != "" && sc.spool != "" && filepath.Clean(sc.ckptDir) != filepath.Clean(sc.spool) {
		return fmt.Errorf("-checkpoint-dir %s and -spool %s name different spools; give one", sc.ckptDir, sc.spool)
	}
	return nil
}

func main() {
	var (
		bench   = flag.String("bench", "body", "benchmark name")
		threads = flag.String("threads", "64", "comma-separated thread counts")
		levels  = flag.String("levels", "8", "comma-separated OCOR priority-level counts")
		seeds   = flag.Int("seeds", 1, "number of seeds per configuration")
		scale   = flag.Float64("scale", 1.0, "iteration scale factor")
		jobs    = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		workers = flag.Int("workers", 1, "intra-simulation worker count per run; composes with -j (0 jobs = GOMAXPROCS/workers)")
		proto   = flag.String("protocol", "", "kernel lock protocol for every run (empty = default queue spinlock)")
		warm    = flag.Bool("warm", true, "warm-start cells from a shared pre-first-lock prefix snapshot")
		ckptDir = flag.String("checkpoint-dir", "", "run as a fleet of -j in-process workers over this spool directory; a rerun resumes the grid")
		fleetN  = flag.Int("fleet", 0, "run the grid as a supervised fleet with this many in-process workers (0 = classic grid mode unless -spool or -checkpoint-dir is set)")
		spool   = flag.String("spool", "", "fleet spool directory: durable job queue, result/poison journals and prefix snapshots; cmd/sweepd workers attach here")
		cellTO  = flag.Duration("cell-timeout", 0, "fleet per-cell wall-clock watchdog; a wedged cell fails (and is retried, then quarantined) instead of wedging its worker (0 = none)")
	)
	flag.Parse()

	if c := par.WorkerCaveat(*workers); c != "" {
		fmt.Fprintln(os.Stderr, "sweep: warning:", c)
	}
	sc := sweepConfig{
		scale: *scale, jobs: *jobs, workers: *workers, protocol: *proto,
		warm: *warm, fleetWorkers: *fleetN, spool: *spool, ckptDir: *ckptDir, cellTimeout: *cellTO,
	}
	if err := sc.check(); err != nil {
		fatal(err)
	}

	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fatal(err)
	}

	p, err := repro.Benchmark(*bench)
	if err != nil {
		fatal(err)
	}
	sc.prof = p.Scale(*scale)

	var grid []cell
	for _, th := range parseInts(*threads) {
		for _, lv := range parseInts(*levels) {
			for seed := uint64(1); seed <= uint64(*seeds); seed++ {
				grid = append(grid, cell{threads: th, levels: lv, seed: seed})
			}
		}
	}
	// Validate every grid cell before the first CSV byte goes out, so a
	// bad flag is one clean stderr line instead of a die mid-stream.
	for _, c := range grid {
		cfg := repro.Config{Threads: c.threads, PriorityLevels: c.levels, Workers: *workers, Protocol: *proto}
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
	}

	// The first SIGINT/SIGTERM truncates: no new simulations are claimed
	// (fleet mode: no new leases; in-flight cells finish), the completed
	// prefix of rows is flushed (and, in fleet mode, persisted), a
	// trailing comment line marks the output as partial, and the exit
	// code is 130. A second signal kills the process.
	sc.grid = grid
	sc.stop = interrupt.Notify("sweep", "draining; flushing completed rows")

	var truncated bool
	if sc.fleetMode() {
		stats, err := sweepFleet(sc, os.Stdout)
		if stats.Restored > 0 {
			fmt.Fprintf(os.Stderr, "sweep: %d of %d cells restored\n", stats.Restored, stats.Unique)
		}
		fmt.Fprintf(os.Stderr, "sweep: fleet: %d leases (%d retries, %d reclaims), %d completed, %d poisoned\n",
			stats.Leases, stats.Retries, stats.Reclaims, stats.Completed, stats.Poisoned)
		switch {
		case errors.Is(err, fleet.ErrDrained):
			truncated = true
		case err != nil:
			fatal(err)
		case stats.Poisoned > 0 && sc.ckptDir != "":
			// A checkpointed sweep fails on a failing cell, as a grid run
			// does; the quarantine verdicts stay in the spool.
			fatal(fmt.Errorf("%d cells poisoned; see %s", stats.Poisoned, filepath.Join(sc.ckptDir, "poison.jsonl")))
		}
	} else {
		stats, err := sweepRun(sc, os.Stdout)
		if stats.Forked > 0 {
			fmt.Fprintf(os.Stderr, "sweep: %d simulations warm-started, skipping %d prefix cycles\n", stats.Forked, stats.PrefixCycles)
		}
		switch {
		case errors.Is(err, experiments.ErrInterrupted):
			truncated = true
		case err != nil:
			fatal(err)
		}
	}
	if truncated {
		fmt.Println("# truncated: interrupted before the grid completed")
		os.Exit(130)
	}

	stopCPU()
	if err := profiling.WriteHeap(*memProf); err != nil {
		fatal(err)
	}
}

// expandCells turns the grid into the baseline/OCOR cell-pair list both
// execution modes share: even index = baseline, odd = OCOR.
func expandCells(sc sweepConfig) []experiments.Cell {
	cells := make([]experiments.Cell, 0, 2*len(sc.grid))
	for _, c := range sc.grid {
		base := experiments.Cell{
			Profile: sc.prof, Threads: c.threads, Seed: c.seed,
			Protocol: sc.protocol, Workers: sc.workers,
		}
		ocor := base
		ocor.OCOR = true
		ocor.Levels = c.levels
		cells = append(cells, base, ocor)
	}
	return cells
}

// sweepRun simulates the grid's baseline/OCOR cell pairs through the
// deduplicating warm-start grid and streams CSV rows to out in grid-walk
// order.
func sweepRun(sc sweepConfig, out io.Writer) (experiments.GridStats, error) {
	em := newCSVEmitter(sc, out)
	defer em.flush()
	opts := experiments.GridOptions{Jobs: sc.jobs, Warm: sc.warm, Stop: sc.stop}
	_, stats, err := experiments.RunGrid(expandCells(sc), opts, func(i int, r experiments.CellResult) {
		em.set(i, r.Results, "")
	})
	return stats, err
}

// sweepFleet runs the same grid as a supervised fleet (see
// internal/fleet): in-process workers plus any cmd/sweepd processes
// attached to -spool, streaming the identical CSV byte stream.
func sweepFleet(sc sweepConfig, out io.Writer) (fleet.Stats, error) {
	cells := expandCells(sc)
	em := newCSVEmitter(sc, out)
	defer em.flush()

	spool, workers := sc.spool, sc.fleetWorkers
	if sc.ckptDir != "" {
		spool = sc.ckptDir
		if workers == 0 {
			workers = par.SharedCoreBudget(sc.jobs, sc.workers)
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
		}
	}
	ro := repro.CellRunnerOptions{Warm: sc.warm, Timeout: sc.cellTimeout}
	if spool != "" {
		if err := os.MkdirAll(spool, 0o755); err != nil {
			return fleet.Stats{}, err
		}
		ro.Cache = repro.DirPrefixCache(spool)
	}
	fc := fleet.Config{
		Spool: spool, Workers: workers, Run: repro.CellRunner(ro),
		AttachWorkers: sc.spool != "", Stop: sc.stop,
	}
	if sc.fleetTune != nil {
		sc.fleetTune(&fc)
	}
	return fleet.Run(fc, cells, func(i int, r fleet.Result) {
		em.set(i, r.Results, r.Err)
	})
}

// csvEmitter streams CSV rows over the full cell list in strict grid-walk
// order, shared by the grid and fleet modes: a grid point's two rows go
// out once its OCOR half resolves, regardless of -j, warm-start forking,
// fleet scheduling, or which cells were restored from a journal. A
// poisoned cell surfaces as a comment line in place of its row, so a
// quarantined configuration is visible without corrupting the CSV shape.
type csvEmitter struct {
	out      io.Writer
	w        *csv.Writer
	sc       sweepConfig
	results  []metrics.Results
	errs     []string
	resolved []bool
	next     int
	lastBase metrics.Results
	baseErr  string
}

func newCSVEmitter(sc sweepConfig, out io.Writer) *csvEmitter {
	e := &csvEmitter{
		out: out, w: csv.NewWriter(out), sc: sc,
		results:  make([]metrics.Results, 2*len(sc.grid)),
		errs:     make([]string, 2*len(sc.grid)),
		resolved: make([]bool, 2*len(sc.grid)),
	}
	_ = e.w.Write([]string{
		"benchmark", "threads", "levels", "seed", "protocol", "workers",
		"scale", "config",
		"roi_finish", "total_coh", "spin_fraction", "sleeps",
		"coh_improvement", "roi_improvement",
	})
	e.w.Flush()
	return e
}

// set resolves cell i (errStr non-empty for a poisoned cell) and streams
// every newly emittable row.
func (e *csvEmitter) set(i int, r metrics.Results, errStr string) {
	e.results[i], e.errs[i], e.resolved[i] = r, errStr, true
	for e.next < len(e.resolved) && e.resolved[e.next] {
		i := e.next
		c := e.sc.grid[i/2]
		if i%2 == 0 {
			e.lastBase, e.baseErr = e.results[i], e.errs[i]
			if e.baseErr != "" {
				e.comment(c, "baseline", e.baseErr)
			} else {
				e.row(c, "baseline", e.lastBase, 0, 0)
			}
		} else {
			switch {
			case e.errs[i] != "":
				e.comment(c, "ocor", e.errs[i])
			case e.baseErr != "":
				// No healthy baseline to compare against.
				e.row(c, "ocor", e.results[i], 0, 0)
			default:
				e.row(c, "ocor", e.results[i],
					metrics.COHImprovement(e.lastBase, e.results[i]),
					metrics.ROIImprovement(e.lastBase, e.results[i]))
			}
		}
		e.next++
	}
	e.w.Flush()
}

func (e *csvEmitter) row(c cell, cfg string, r metrics.Results, cohImp, roiImp float64) {
	_ = e.w.Write([]string{
		e.sc.prof.Name, strconv.Itoa(c.threads), strconv.Itoa(c.levels),
		strconv.FormatUint(c.seed, 10), e.sc.protocol, strconv.Itoa(e.sc.workers),
		strconv.FormatFloat(e.sc.scale, 'f', -1, 64), cfg,
		strconv.FormatUint(r.ROIFinish, 10),
		strconv.FormatUint(r.TotalCOH, 10),
		strconv.FormatFloat(r.SpinFraction, 'f', 4, 64),
		strconv.FormatUint(r.TotalSleeps, 10),
		strconv.FormatFloat(cohImp, 'f', 4, 64),
		strconv.FormatFloat(roiImp, 'f', 4, 64),
	})
}

// comment emits a poisoned cell as a CSV comment line (flushing the
// writer first so the interleaving stays ordered).
func (e *csvEmitter) comment(c cell, cfg, errStr string) {
	e.w.Flush()
	fmt.Fprintf(e.out, "# poisoned %s threads=%d levels=%d seed=%d config=%s: %s\n",
		e.sc.prof.Name, c.threads, c.levels, c.seed, cfg, errStr)
}

func (e *csvEmitter) flush() { e.w.Flush() }

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad integer list %q: %v", s, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
