package experiments

// Fault-injection sweeps: run a benchmark across a ladder of seeded
// flit-drop rates, baseline vs OCOR, and report how gracefully each mode
// degrades. Failed runs — watchdog trips, wall-clock timeouts, panics —
// are data points, not sweep failures: robustness experiments exist
// precisely to chart where the system stops completing.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// FaultOptions configures a fault-injection sweep.
type FaultOptions struct {
	// Bench is the catalog benchmark name.
	Bench string
	// Threads, Seed, Scale, Jobs, Workers, Protocol as in Options.
	Threads  int
	Seed     uint64
	Scale    float64
	Jobs     int
	Workers  int
	Protocol string
	// Rates is the ladder of flit-drop rates applied to the locking
	// classes (rate 0 is the healthy reference point).
	Rates []float64
	// Recovery arms the lock kernel's liveness recovery for every run.
	Recovery bool
	// Timeout bounds each run's wall-clock time (0 = no bound). Expiry
	// fails the run, not the sweep.
	Timeout time.Duration
	// Stop, when non-nil and closed, truncates the sweep: runs not yet
	// started return immediately as interrupted, and the completed prefix
	// of points is emitted with Truncated set.
	Stop <-chan struct{}
}

func (o FaultOptions) withDefaults() FaultOptions {
	if o.Bench == "" {
		o.Bench = "body"
	}
	if o.Threads == 0 {
		o.Threads = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{0, 0.005, 0.01, 0.02}
	}
	return o
}

// FaultOutcome is one run of the sweep. OK distinguishes a completed
// simulation from a degraded one (deadlock caught by the watchdog,
// wall-clock timeout, panic); Failure carries the reason when !OK.
// Every field is deterministic — failures included, except that a
// wall-clock timeout's trip point depends on machine speed (which is
// why sweeps meant to be reproduced should rely on the watchdog, whose
// budgets are in cycles).
type FaultOutcome struct {
	OK       bool                 `json:"ok"`
	Failure  string               `json:"failure,omitempty"`
	Results  metrics.Results      `json:"results"`
	Faults   fault.Snapshot       `json:"faults"`
	Recovery kernel.RecoveryStats `json:"recovery"`
}

// FaultPoint pairs the baseline and OCOR outcomes at one drop rate.
type FaultPoint struct {
	Rate float64      `json:"rate"`
	Base FaultOutcome `json:"base"`
	OCOR FaultOutcome `json:"ocor"`
}

// FaultSweep is the full sweep result: one point per rate, in rate
// order. Truncated marks a sweep interrupted before every point
// completed; the points present are complete and valid.
type FaultSweep struct {
	Bench     string       `json:"bench"`
	Threads   int          `json:"threads"`
	Seed      uint64       `json:"seed"`
	Scale     float64      `json:"scale"`
	Recovery  bool         `json:"recovery"`
	Points    []FaultPoint `json:"points"`
	Truncated bool         `json:"truncated,omitempty"`
}

// RunFaultSweep runs the drop-rate ladder, baseline and OCOR per rate,
// and returns the assembled degradation curve. Runs are distributed
// over Jobs workers — Jobs and Workers compose through
// par.SharedCoreBudget, like every other sweep — and results and
// progress output are independent of the job count.
func RunFaultSweep(o FaultOptions, progress io.Writer) (FaultSweep, error) {
	o = o.withDefaults()
	prof, err := workload.ByName(o.Bench)
	if err != nil {
		return FaultSweep{}, err
	}
	prof = prof.Scale(o.Scale)

	// Even index = baseline, odd = OCOR, two per rate (the RunSuite
	// layout). Failed runs are outcomes, not errors, so only a stop
	// request cuts the sweep short.
	var cells []Cell
	for _, rate := range o.Rates {
		base := Cell{Profile: prof, Threads: o.Threads, Seed: o.Seed, Protocol: o.Protocol, Workers: o.Workers,
			Faults: fault.Plan{Seed: o.Seed, DropRate: rate}, Recovery: o.Recovery}
		ocor := base
		ocor.OCOR = true
		cells = append(cells, base, ocor)
	}
	sweep := FaultSweep{
		Bench: o.Bench, Threads: o.Threads, Seed: o.Seed,
		Scale: o.Scale, Recovery: o.Recovery,
	}
	gopt := GridOptions{Jobs: o.Jobs, Stop: o.Stop, timeout: o.Timeout}
	_, _, err = RunGrid(cells, gopt, pairs(func(k int, base, ocor CellResult) {
		pt := FaultPoint{Rate: o.Rates[k], Base: outcome(base), OCOR: outcome(ocor)}
		sweep.Points = append(sweep.Points, pt)
		if progress != nil {
			fmt.Fprintf(progress, "rate %-6g base: %s  ocor: %s\n", pt.Rate, outcomeLabel(pt.Base), outcomeLabel(pt.OCOR))
		}
	}))
	switch {
	case errors.Is(err, ErrInterrupted):
		sweep.Truncated = true
	case err != nil:
		return FaultSweep{}, err
	}
	return sweep, nil
}

// outcome is the sweep's view of a fault cell.
func outcome(r CellResult) FaultOutcome {
	return FaultOutcome{OK: r.Failure == "", Failure: r.Failure, Results: r.Results, Faults: r.Faults, Recovery: r.Recovery}
}

func outcomeLabel(o FaultOutcome) string {
	if !o.OK {
		return "FAILED (" + o.Failure + ")"
	}
	return fmt.Sprintf("roi=%-9d drops=%d timeouts=%d",
		o.Results.ROIFinish, o.Faults.DroppedTails, o.Recovery.ReqTimeouts)
}
