// Command lockarena runs the lock-protocol tournament: every kernel lock
// algorithm crossed with OCOR on/off over a workload catalog subset, on
// the full simulated platform, ranked into a deterministic leaderboard
// by total ROI finish time. Per-algorithm blocking-time and
// competition-overhead histograms come from the metrics collector, and
// handoff/queue-depth counters from the lock controllers.
//
// Output is a stable JSON report (byte-identical for any -j setting); a
// human-readable leaderboard goes to stderr unless -v=false.
//
// Usage:
//
//	lockarena                                 # all protocols, quick set
//	lockarena -protocols mcs,cna -benches body,can -scale 0.1
//	lockarena -o arena.json -j 4
package main

import (
	"flag"
	"os"

	_ "repro" // installs the platform cell runner into the experiments package
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	run := cli.Register("lockarena", cli.Threads|cli.Seed|cli.Scale|cli.Jobs,
		cli.Run{Threads: 16, Seed: 1, Scale: 1})
	var (
		benches   = flag.String("benches", "", "comma-separated benchmark names (empty = representative quick subset)")
		protocols = flag.String("protocols", "", "comma-separated protocol names (empty = every registered protocol)")
		out       = flag.String("o", "", "write the JSON report here instead of stdout")
		verbose   = flag.Bool("v", true, "print progress and the leaderboard table to stderr")
	)
	run.Parse()

	progress := os.Stderr
	if !*verbose {
		progress = nil
	}
	report, err := experiments.RunArena(experiments.ArenaOptions{
		Threads: run.Threads, Seed: run.Seed, Scale: run.Scale, Jobs: run.Jobs,
		Benches:   cli.List(*benches),
		Protocols: cli.List(*protocols),
	}, progress)
	if err != nil {
		run.Fatal(err)
	}
	if *verbose {
		experiments.PrintArena(os.Stderr, report)
	}
	if err := cli.WriteJSON(*out, report); err != nil {
		run.Fatal(err)
	}
}
