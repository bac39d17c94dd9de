// Command faultsweep charts how gracefully the platform degrades under
// deterministic fault injection: one benchmark is run across a ladder of
// seeded flit-drop rates, baseline vs OCOR, and the resulting
// degradation curve is emitted as JSON. Runs that stop completing —
// watchdog-detected deadlocks, wall-clock timeouts — appear as failed
// data points, not tool failures.
//
// The output is deterministic: the same flags produce byte-identical
// JSON regardless of -j and -workers (wall-clock timeouts excepted —
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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro" // also installs the platform cell runner into the experiments package
	"repro/internal/interrupt"
	"repro/internal/par"

	"repro/internal/experiments"
)

func main() {
	var (
		bench    = flag.String("bench", "body", "catalog benchmark name")
		threads  = flag.Int("threads", 16, "thread/core count")
		seed     = flag.Uint64("seed", 1, "simulation and fault-plan seed")
		scale    = flag.Float64("scale", 0.1, "iteration scale factor")
		rates    = flag.String("rates", "0,0.005,0.01,0.02", "comma-separated flit-drop rates (locking classes)")
		recovery = flag.Bool("recovery", true, "arm the lock kernel's liveness recovery")
		timeout  = flag.Duration("timeout", 0, "per-run wall-clock bound (0 = none; expiry fails the run, not the sweep)")
		jobs     = flag.Int("j", 0, "max concurrent runs (0 = GOMAXPROCS)")
		workers  = flag.Int("workers", 1, "intra-simulation worker count per run")
		proto    = flag.String("protocol", "", "kernel lock protocol for every run (empty = default queue spinlock)")
		out      = flag.String("o", "", "write JSON here instead of stdout")
		verbose  = flag.Bool("v", true, "print per-rate progress to stderr")
	)
	flag.Parse()

	if c := par.WorkerCaveat(*workers); c != "" {
		fmt.Fprintln(os.Stderr, "faultsweep: warning:", c)
	}

	rateList, err := parseRates(*rates)
	if err != nil {
		fatal(err)
	}
	if err := (&repro.Config{Threads: *threads, Workers: *workers, Protocol: *proto}).Validate(); err != nil {
		fatal(err)
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
		Bench: *bench, Threads: *threads, Seed: *seed, Scale: *scale,
		Rates: rateList, Recovery: *recovery, Timeout: *timeout,
		Jobs: *jobs, Workers: *workers, Protocol: *proto, Stop: stop,
	}, progress)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sweep); err != nil {
		fatal(err)
	}
	if sweep.Truncated {
		os.Exit(130)
	}
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", part, err)
		}
		if v < 0 || v >= 1 {
			return nil, fmt.Errorf("rate %g outside [0, 1)", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultsweep:", err)
	os.Exit(1)
}
