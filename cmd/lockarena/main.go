// Command lockarena runs the lock-protocol tournament: every kernel lock
// algorithm crossed with OCOR on/off over a workload catalog subset, on
// the full simulated platform, ranked into a deterministic leaderboard
// by total ROI finish time. Per-algorithm blocking-time and
// competition-overhead histograms come from the metrics collector, and
// handoff/queue-depth counters from the lock controllers.
//
// Output is a stable JSON report (byte-identical for any -j / -workers
// setting); a human-readable leaderboard goes to stderr unless -v=false.
//
// Usage:
//
//	lockarena                                 # all protocols, quick set
//	lockarena -protocols mcs,cna -benches body,can -scale 0.1
//	lockarena -o arena.json -j 4 -workers 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro" // installs the platform cell runner into the experiments package
	"repro/internal/par"

	"repro/internal/experiments"
)

func main() {
	var (
		threads   = flag.Int("threads", 16, "thread/core count per run")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		scale     = flag.Float64("scale", 1.0, "iteration scale factor")
		benches   = flag.String("benches", "", "comma-separated benchmark names (empty = representative quick subset)")
		protocols = flag.String("protocols", "", "comma-separated protocol names (empty = every registered protocol)")
		jobs      = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		workers   = flag.Int("workers", 1, "intra-simulation worker count per run; composes with -j")
		out       = flag.String("o", "", "write the JSON report here instead of stdout")
		verbose   = flag.Bool("v", true, "print progress and the leaderboard table to stderr")
	)
	flag.Parse()

	if c := par.WorkerCaveat(*workers); c != "" {
		fmt.Fprintln(os.Stderr, "lockarena: warning:", c)
	}
	if err := (&repro.Config{Threads: *threads, Workers: *workers}).Validate(); err != nil {
		fatal(err)
	}

	progress := os.Stderr
	if !*verbose {
		progress = nil
	}
	report, err := experiments.RunArena(experiments.ArenaOptions{
		Threads: *threads, Seed: *seed, Scale: *scale,
		Jobs: *jobs, Workers: *workers,
		Benches:   splitList(*benches),
		Protocols: splitList(*protocols),
	}, progress)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		experiments.PrintArena(os.Stderr, report)
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
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lockarena:", err)
	os.Exit(1)
}
