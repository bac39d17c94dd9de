// Command ocorsim runs one benchmark on the simulated CMP platform and
// prints the full metric breakdown, optionally comparing the baseline
// queue spinlock against OCOR.
//
// Usage:
//
//	ocorsim -bench botss                        # baseline vs OCOR at 64 threads
//	ocorsim -bench body -threads 16 -trace      # with an execution profile
//	ocorsim -bench can -ocor=false -compare=false
//	ocorsim -list                               # catalog
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	var (
		bench    = flag.String("bench", "body", "benchmark name (see -list)")
		threads  = flag.Int("threads", 64, "thread/core count")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		scale    = flag.Float64("scale", 1.0, "iteration scale factor")
		compare  = flag.Bool("compare", true, "run both baseline and OCOR")
		ocor     = flag.Bool("ocor", true, "enable OCOR (single-run mode)")
		levels   = flag.Int("levels", 8, "OCOR priority levels")
		trace    = flag.Bool("trace", false, "print an execution profile (Fig. 10 style)")
		locks    = flag.Bool("locks", false, "print per-lock contention statistics")
		list     = flag.Bool("list", false, "list the benchmark catalog and exit")
		traceOut = flag.String("traceout", "", "write a Perfetto trace-event JSON file (OCOR run in compare mode)")
		histo    = flag.Bool("histo", false, "print streaming latency histograms and arbitration counters")
		workers  = flag.Int("workers", 1, "intra-simulation worker count for the NoC tick (results are identical for every value)")
		proto    = flag.String("protocol", "", "kernel lock protocol (empty = default queue spinlock; see internal/kernel/protocol)")
	)
	flag.Parse()

	if c := par.WorkerCaveat(*workers); c != "" {
		fmt.Fprintln(os.Stderr, "ocorsim: warning:", c)
	}

	if *list {
		fmt.Printf("%-10s %-14s %-8s %-8s %-9s\n", "name", "full", "suite", "CS rate", "net util")
		for _, p := range repro.Catalog() {
			fmt.Printf("%-10s %-14s %-8s %-8s %-9s\n", p.Name, p.Full, p.Suite, p.CSRate, p.NetUtil)
		}
		return
	}

	p, err := repro.Benchmark(*bench)
	if err != nil {
		fatal(err)
	}
	p = p.Scale(*scale)

	// Validate the flag-derived configuration up front so an impossible
	// topology is reported once, before any simulation output.
	runCfg := repro.Config{
		Benchmark: p, Threads: *threads, PriorityLevels: *levels,
		Seed: *seed, Trace: *trace, Workers: *workers,
		Protocol: *proto,
	}
	if err := runCfg.Validate(); err != nil {
		fatal(err)
	}

	runOne := func(enabled bool, rec *obs.Recorder) metrics.Results {
		cfg := runCfg
		cfg.OCOR = enabled
		cfg.Obs = rec
		sys, err := repro.New(cfg)
		if err != nil {
			fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			fatal(err)
		}
		if rec != nil {
			if *histo {
				fmt.Printf("\nstreaming statistics (ocor=%v):\n", enabled)
				rec.Stats.Summary(os.Stdout, func(i int) string { return noc.Class(i).String() })
			}
			if *traceOut != "" {
				if err := writeTrace(*traceOut, rec); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "ocorsim: wrote %s (%d events, %d evicted); open in ui.perfetto.dev\n",
					*traceOut, rec.Len(), rec.Dropped())
			}
		}
		if *trace {
			window := res.ROIFinish / 8
			if window == 0 {
				window = res.ROIFinish
			}
			fmt.Printf("\nexecution profile (ocor=%v, first %d cycles):\n", enabled, window)
			fmt.Print(sys.Timeline.RenderString(16, window, window/60+1))
		}
		if *locks {
			fmt.Printf("\nper-lock statistics (ocor=%v, protocol=%s):\n", enabled, sys.Kernel.Protocol())
			fmt.Printf("%6s %6s %12s %12s %8s %9s %9s %12s %10s\n", "lock", "home", "acquisitions", "failed tries", "wakes", "handoffs", "max queue", "held cycles", "held frac")
			for _, st := range sys.Kernel.LockStats(sys.Engine.Now()) {
				fmt.Printf("%6d %6d %12d %12d %8d %9d %9d %12d %9.1f%%\n",
					st.Lock, st.Home, st.Acquisitions, st.FailedTries, st.Wakes, st.Handoffs, st.MaxQueueDepth, st.HeldCycles,
					100*float64(st.HeldCycles)/float64(res.ROIFinish))
			}
		}
		return res
	}

	// A recorder is only allocated when something consumes it; in compare
	// mode it observes the OCOR run (the interesting one for Table 1 rules).
	var rec *obs.Recorder
	if *traceOut != "" || *histo {
		rec = obs.NewRecorder(0)
	}
	if !*compare {
		print1(runOne(*ocor, rec))
		return
	}
	base := runOne(false, nil)
	oc := runOne(true, rec)
	print1(base)
	print1(oc)
	fmt.Printf("\nOCOR vs baseline: COH reduced %.1f%%, ROI reduced %.1f%%, spin entries %+.1f points\n",
		100*metrics.COHImprovement(base, oc),
		100*metrics.ROIImprovement(base, oc),
		100*metrics.SpinFractionGain(base, oc))
}

func print1(r metrics.Results) {
	mode := "baseline"
	if r.OCOR {
		mode = "OCOR"
	}
	fmt.Printf("\n%s (%s, %d threads on %d nodes)\n", r.Benchmark, mode, r.Threads, r.Nodes)
	fmt.Printf("  ROI finish time        %12d cycles\n", r.ROIFinish)
	fmt.Printf("  acquisitions           %12d (%d retries, %d sleep episodes)\n", r.Acquisitions, r.TotalRetries, r.TotalSleeps)
	fmt.Printf("  spin-phase entries     %11.1f%%\n", 100*r.SpinFraction)
	fmt.Printf("  COH fraction of ROI    %11.1f%%\n", 100*r.COHFraction)
	fmt.Printf("  CS fraction of ROI     %11.1f%%\n", 100*r.CSFraction)
	fmt.Printf("  mean blocking time     %12.0f cycles (mean COH %.0f)\n", r.MeanBT, r.MeanCOH)
	fmt.Printf("  lock packet latency    %12.1f cycles (data %.1f)\n", r.LockLatency, r.DataLatency)
	fmt.Printf("  injection rate         %12.4f flits/node/cycle\n", r.NetInjRate)
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, rec.Events(), rec.Dropped()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ocorsim:", err)
	os.Exit(1)
}
