// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the competition-overhead characterisation
// (Fig. 2), the bodytrack execution profile (Fig. 10), COH reduction and
// spinning-phase entry improvements (Fig. 11), the benchmark
// characterisation (Fig. 12), relative critical-section execution time
// (Fig. 13), ROI finish-time improvements (Fig. 14), thread-count
// scalability (Fig. 15), priority-level sensitivity (Fig. 16) and the
// summary Table 3.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Threads is the core/thread count (paper default 64).
	Threads int
	// Seed drives all workload generation and simulation randomness.
	Seed uint64
	// Scale multiplies per-benchmark iteration counts (1.0 = calibrated
	// defaults; benchmarks may use smaller values for quick runs).
	Scale float64
	// Quick restricts suite-wide experiments to a representative subset
	// of benchmarks.
	Quick bool
	// Jobs bounds how many independent simulations run concurrently
	// (0 = GOMAXPROCS). Results and progress output are independent of
	// the setting: every simulation is seeded individually and reports
	// are assembled in catalog order.
	Jobs int
	// Workers is the intra-simulation parallelism width handed to every
	// run (values > 1 shard each NoC tick over a worker pool of that
	// size). Results are byte-identical for every value; only wall-clock
	// time changes. Workers and Jobs compose through a shared core
	// budget: when Jobs is 0 and Workers > 1, the effective job count is
	// GOMAXPROCS / Workers (min 1) so the two levels together never
	// oversubscribe the machine.
	Workers int
	// Protocol selects the kernel lock algorithm for every run ("" = the
	// default queue spinlock). See internal/kernel/protocol.
	Protocol string
}

// withDefaults normalises unset options.
func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// quickSet is the representative subset used when Options.Quick is set:
// two high/high, one high/low, one low/high and two low/low programs.
var quickSet = map[string]bool{
	"botss": true, "can": true, "body": true,
	"freq": true, "smith": true, "imag": true,
}

// profiles returns the benchmark list an experiment runs over.
func (o Options) profiles() []workload.Profile {
	all := workload.Catalog()
	if !o.Quick {
		return all
	}
	var out []workload.Profile
	for _, p := range all {
		if quickSet[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// cell returns the plain cell of profile p under the options' seed,
// protocol and widths.
func (o Options) cell(p workload.Profile, threads int, ocor bool) Cell {
	return Cell{Profile: p, Threads: threads, OCOR: ocor, Seed: o.Seed,
		Protocol: o.Protocol, Workers: o.Workers}
}

// grid runs cells through RunGrid under the options' job budget.
func (o Options) grid(cells []Cell, emit func(i int, r CellResult)) ([]CellResult, error) {
	res, _, err := RunGrid(cells, GridOptions{Jobs: o.Jobs}, emit)
	return res, err
}

// pairs adapts an emitter over baseline/OCOR-interleaved cells (even
// index = baseline): f sees each pair once its OCOR half arrives, which
// RunGrid's in-order emission makes deterministic for any Jobs.
func pairs(f func(k int, base, ocor CellResult)) func(i int, r CellResult) {
	var base CellResult
	return func(i int, r CellResult) {
		if i%2 == 0 {
			base = r
			return
		}
		f(i/2, base, r)
	}
}

// BenchResult pairs the baseline and OCOR results of one benchmark.
type BenchResult struct {
	Profile workload.Profile
	Base    metrics.Results
	OCOR    metrics.Results
}

// COHImprovement is the relative COH reduction (Fig. 11a).
func (b BenchResult) COHImprovement() float64 { return metrics.COHImprovement(b.Base, b.OCOR) }

// ROIImprovement is the relative ROI finish-time reduction (Fig. 14b).
func (b BenchResult) ROIImprovement() float64 { return metrics.ROIImprovement(b.Base, b.OCOR) }

// SpinGain is the spinning-phase entry increase in fraction points (Fig. 11b).
func (b BenchResult) SpinGain() float64 { return metrics.SpinFractionGain(b.Base, b.OCOR) }

// RunSuite runs baseline and OCOR for every benchmark in the catalog (or
// the quick subset) and returns the per-benchmark result pairs. This is
// the shared substrate of Figs. 2, 11, 12, 13, 14 and Table 3.
func RunSuite(o Options, progress io.Writer) ([]BenchResult, error) {
	o = o.withDefaults()
	var cells []Cell
	for _, p := range o.profiles() {
		p = p.Scale(o.Scale)
		cells = append(cells, o.cell(p, o.Threads, false), o.cell(p, o.Threads, true))
	}
	out := make([]BenchResult, len(cells)/2)
	_, err := o.grid(cells, pairs(func(k int, base, ocor CellResult) {
		p := cells[2*k].Profile
		out[k] = BenchResult{Profile: p, Base: base.Results, OCOR: ocor.Results}
		if progress != nil {
			fmt.Fprintf(progress, "running %-8s (%s, cs=%s net=%s) ... COH -%.1f%%  ROI -%.1f%%\n",
				p.Name, p.Suite, p.CSRate, p.NetUtil, 100*out[k].COHImprovement(), 100*out[k].ROIImprovement())
		}
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sortByCOHImprovement orders results most-improved first, as Fig. 11
// presents them.
func sortByCOHImprovement(rs []BenchResult) []BenchResult {
	out := make([]BenchResult, len(rs))
	copy(out, rs)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].COHImprovement() > out[j].COHImprovement()
	})
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
