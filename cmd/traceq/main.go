// Command traceq summarizes a structured-event trace: the top-N slowest
// lock acquisitions with the full per-hop NoC path of the request and
// grant packets behind each one. It answers "where did the blocking time
// go" for a single acquisition, complementing the aggregate histograms.
//
// It can query a trace file captured earlier with -trace (ocorsim,
// noctrace, experiments) or run a benchmark in-process and summarize the
// capture directly, optionally aggregating several seeds.
//
// Usage:
//
//	traceq -in out.json -top 5            # query a captured trace file
//	traceq -bench body -threads 16        # run in-process and summarize
//	traceq -bench body -seeds 4 -j 4      # aggregate consecutive seeds
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	var (
		in      = flag.String("in", "", "read a -trace JSON file instead of simulating")
		bench   = flag.String("bench", "body", "benchmark name for in-process capture")
		threads = flag.Int("threads", 16, "thread/core count for in-process capture")
		seed    = flag.Uint64("seed", 1, "first simulation seed")
		seeds   = flag.Int("seeds", 1, "number of consecutive seeds to aggregate")
		scale   = flag.Float64("scale", 1.0, "iteration scale factor")
		ocor    = flag.Bool("ocor", true, "enable OCOR for in-process capture")
		top     = flag.Int("top", 10, "number of slowest acquisitions to print")
		jobs    = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		proto   = flag.String("protocol", "", "kernel lock protocol for in-process capture (empty = default queue spinlock)")
	)
	flag.Parse()

	var (
		acqs    []obs.Acquisition
		dropped uint64
		locks   []kernel.LockStat
		protoN  string
	)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		evs, d, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *in, err))
		}
		acqs = obs.Acquisitions(evs)
		dropped = d
	} else {
		p, err := repro.Benchmark(*bench)
		if err != nil {
			fatal(err)
		}
		p = p.Scale(*scale)
		if err := (&repro.Config{Threads: *threads, OCOR: *ocor, Protocol: *proto}).Validate(); err != nil {
			fatal(err)
		}
		type capture struct {
			acqs    []obs.Acquisition
			dropped uint64
			locks   []kernel.LockStat
			proto   string
		}
		// Seeds run concurrently but results are concatenated in seed
		// order, so the report is identical for any -j width.
		caps, err := par.Map(*seeds, *jobs, func(i int) (capture, error) {
			rec := obs.NewRecorder(0)
			sys, err := repro.New(repro.Config{
				Benchmark: p, Threads: *threads, OCOR: *ocor,
				Seed: *seed + uint64(i), Obs: rec,
				Protocol: *proto,
			})
			if err != nil {
				return capture{}, err
			}
			if _, err := sys.Run(); err != nil {
				return capture{}, err
			}
			return capture{
				obs.Acquisitions(rec.Events()), rec.Dropped(),
				sys.Kernel.LockStats(sys.Engine.Now()), sys.Kernel.Protocol(),
			}, nil
		}, nil)
		if err != nil {
			fatal(err)
		}
		// Lock stats aggregate across seeds: counters sum, high-water
		// depths take the max, keyed by lock id (stats arrive sorted).
		agg := map[int]*kernel.LockStat{}
		for _, c := range caps {
			acqs = append(acqs, c.acqs...)
			dropped += c.dropped
			protoN = c.proto
			for _, st := range c.locks {
				a, ok := agg[st.Lock]
				if !ok {
					cp := st
					agg[st.Lock] = &cp
					continue
				}
				a.Acquisitions += st.Acquisitions
				a.FailedTries += st.FailedTries
				a.Wakes += st.Wakes
				a.Handoffs += st.Handoffs
				a.HeldCycles += st.HeldCycles
				if st.MaxQueueDepth > a.MaxQueueDepth {
					a.MaxQueueDepth = st.MaxQueueDepth
				}
			}
		}
		for _, c := range caps {
			for _, st := range c.locks {
				if a := agg[st.Lock]; a != nil {
					locks = append(locks, *a)
					delete(agg, st.Lock)
				}
			}
			break // first capture fixes the (sorted) lock order
		}
	}

	fmt.Printf("%d acquisitions captured", len(acqs))
	if dropped > 0 {
		fmt.Printf(" (%d events evicted from the ring; oldest hops may be missing)", dropped)
	}
	fmt.Println()
	slow := obs.TopSlowest(acqs, *top)
	if len(slow) == 0 {
		fmt.Println("no lock acquisitions recorded")
		return
	}
	fmt.Printf("top %d by blocking time:\n\n", len(slow))
	for i := range slow {
		fmt.Printf("#%-2d ", i+1)
		slow[i].WriteBreakdown(os.Stdout)
	}
	if len(locks) > 0 {
		fmt.Printf("\nper-lock contention (protocol=%s, %d seed(s) aggregated):\n", protoN, *seeds)
		fmt.Printf("%6s %12s %12s %8s %9s %9s\n", "lock", "acquisitions", "failed tries", "wakes", "handoffs", "max queue")
		for _, st := range locks {
			fmt.Printf("%6d %12d %12d %8d %9d %9d\n",
				st.Lock, st.Acquisitions, st.FailedTries, st.Wakes, st.Handoffs, st.MaxQueueDepth)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceq:", err)
	os.Exit(1)
}
