// Command faultsweep charts how gracefully the platform degrades under
// deterministic fault injection: one benchmark is run across a ladder of
// seeded flit-drop rates, baseline vs OCOR, and the resulting
// degradation curve is emitted as JSON. Runs that stop completing —
// watchdog-detected deadlocks, wall-clock timeouts — appear as failed
// data points, not tool failures.
//
// The output is deterministic: the same flags produce byte-identical
// JSON regardless of -j (wall-clock timeouts excepted —
// prefer the cycle-budgeted watchdog, which is always armed, when the
// curve must be reproducible). On SIGINT the completed prefix of points
// is flushed with "truncated": true and the tool exits 130.
//
// Usage:
//
//	faultsweep -bench body -threads 16 -scale 0.1
//	faultsweep -rates 0,0.01,0.02,0.05 -recovery=false -o curve.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	_ "repro" // installs the platform cell runner into the experiments package
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/interrupt"
)

func main() {
	run := cli.Register("faultsweep", cli.Bench|cli.Threads|cli.Seed|cli.Scale|cli.Protocol|cli.Jobs,
		cli.Run{Bench: "body", Threads: 16, Seed: 1, Scale: 0.1})
	var (
		rates    = flag.String("rates", "0,0.005,0.01,0.02", "comma-separated flit-drop rates (locking classes)")
		recovery = flag.Bool("recovery", true, "arm the lock kernel's liveness recovery")
		timeout  = flag.Duration("timeout", 0, "per-run wall-clock bound (0 = none; expiry fails the run, not the sweep)")
		out      = flag.String("o", "", "write JSON here instead of stdout")
		verbose  = flag.Bool("v", true, "print per-rate progress to stderr")
	)
	run.Parse()

	rateList, err := parseRates(*rates)
	if err != nil {
		run.Fatal(err)
	}

	// SIGINT/SIGTERM truncate: the sweep stops claiming new runs, the
	// completed prefix of points is flushed as valid JSON marked
	// "truncated", and the exit code is 130. A second signal kills the
	// process directly.
	stop := interrupt.Notify("faultsweep", "flushing completed points")

	progress := os.Stderr
	if !*verbose {
		progress = nil
	}
	sweep, err := experiments.RunFaultSweep(experiments.FaultOptions{
		Bench: run.Bench, Threads: run.Threads, Seed: run.Seed, Scale: run.Scale,
		Rates: rateList, Recovery: *recovery, Timeout: *timeout,
		Jobs: run.Jobs, Protocol: run.Protocol, Stop: stop,
	}, progress)
	if err != nil {
		run.Fatal(err)
	}
	if err := cli.WriteJSON(*out, sweep); err != nil {
		run.Fatal(err)
	}
	if sweep.Truncated {
		os.Exit(130)
	}
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range cli.List(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", part, err)
		}
		if !(v >= 0 && v < 1) { // NaN too
			return nil, fmt.Errorf("rate %g outside [0, 1)", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}
