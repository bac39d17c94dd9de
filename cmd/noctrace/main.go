// Command noctrace drives the NoC substrate alone with synthetic traffic
// patterns, reporting latency and throughput per traffic class. It is the
// debugging and ablation tool for the priority-based router: inject a mix
// of data and locking packets and observe how round-robin vs Table 1
// priority arbitration treats them.
//
// Usage:
//
//	noctrace -pattern uniform -load 0.1 -priority
//	noctrace -pattern hotspot -cycles 20000 -lockfrac 0.05
//	noctrace -pattern transpose -mesh 8x8
//	noctrace -pattern hotspot -priority -csv          # machine-readable rows
//	noctrace -pattern hotspot -trace out.json         # Perfetto trace
//	noctrace -mesh 32x32 -workers 4                   # sharded fused tick
//	noctrace -priority -protocol reciprocating        # protocol spin budgets
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel/protocol"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

func main() {
	var (
		mesh     = flag.String("mesh", "8x8", "mesh dimensions WxH")
		pattern  = flag.String("pattern", "uniform", "traffic pattern: uniform, hotspot, transpose, neighbor")
		load     = flag.Float64("load", 0.05, "injection probability per node per cycle")
		lockfrac = flag.Float64("lockfrac", 0.05, "fraction of injected packets that are locking requests")
		cycles   = flag.Uint64("cycles", 10000, "injection window in cycles")
		priority = flag.Bool("priority", false, "enable OCOR priority arbitration")
		seed     = flag.Uint64("seed", 1, "rng seed")
		csv      = flag.Bool("csv", false, "print machine-readable per-class CSV rows instead of the table")
		traceOut = flag.String("trace", "", "write a Perfetto trace-event JSON file of the run")
		workers  = flag.Int("workers", 1, "intra-tick worker count (>1 runs the sharded fused tick; results are identical)")
		proto    = flag.String("protocol", "", "lock protocol whose wait policy sets the spin budget behind lock-packet priorities (\"\" = baseline)")
	)
	flag.Parse()

	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); err != nil {
		fatal(fmt.Errorf("bad -mesh %q: %v", *mesh, err))
	}
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Priority = *priority
	// Validate explicitly (NewNetwork would too) so a bad -mesh is
	// reported as the typed config error before anything is built.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	// -workers and -protocol get the same validation the platform config
	// applies: worker counts are bounded by the shardable node count, and
	// an unknown protocol name reports the registry's known list.
	if *workers < 0 {
		fatal(fmt.Errorf("bad -workers: negative count %d", *workers))
	}
	if *workers > cfg.Nodes() {
		fatal(fmt.Errorf("bad -workers: %d tick workers exceed the %dx%d mesh's %d nodes (shards would be empty)",
			*workers, w, h, cfg.Nodes()))
	}
	if !protocol.Valid(*proto) {
		fatal(fmt.Errorf("unknown lock protocol %q (known: %v)", *proto, protocol.Known()))
	}
	prot, err := protocol.New(*proto, protocol.Params{MeshW: w, MeshH: h})
	if err != nil {
		fatal(err)
	}
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	if *workers > 1 {
		pool := par.NewPool(*workers)
		defer pool.Close()
		net.SetTickPool(pool)
	}
	for i := 0; i < cfg.Nodes(); i++ {
		net.SetSink(i, func(now uint64, pkt *noc.Packet) {})
	}
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder(0)
		net.SetObserver(rec)
	}

	rng := sim.NewRNG(*seed)
	pol := core.DefaultPolicy()
	// The protocol's client-side wait policy bounds how long a thread
	// spins before sleeping, which is exactly the spin-progress component
	// of the OCOR priority — so the chosen protocol sets the ceiling the
	// synthetic lock packets draw their spin counts from.
	spinCap := prot.NewWaitPolicy().SpinBudget()
	if spinCap < 2 {
		spinCap = 2
	}
	dst := func(src int) int {
		switch *pattern {
		case "hotspot":
			// Everyone sends to the mesh centre.
			return cfg.Node(w/2, h/2)
		case "transpose":
			x, y := cfg.XY(src)
			return cfg.Node(y%w, x%h)
		case "neighbor":
			x, y := cfg.XY(src)
			return cfg.Node((x+1)%w, y)
		default:
			return rng.Intn(cfg.Nodes())
		}
	}

	e := sim.NewEngine()
	e.Register(net)
	inj := &sim.FuncComponent{
		TickFn: func(now uint64) {
			if now >= *cycles {
				return
			}
			for s := 0; s < cfg.Nodes(); s++ {
				if !rng.Bool(*load) {
					continue
				}
				d := dst(s)
				if d == s {
					continue
				}
				if rng.Bool(*lockfrac) {
					pkt := net.NewPacket(s, d, noc.ClassLock, noc.VNetRequest, nil)
					pkt.Prio = pol.LockPriority(rng.Range(1, spinCap), rng.Intn(8))
					net.Send(now, pkt)
				} else {
					net.Send(now, net.NewPacket(s, d, noc.ClassData, noc.VNetResponse, nil))
				}
			}
		},
		NextWakeFn: func(now uint64) uint64 {
			if now < *cycles {
				return now + 1
			}
			return sim.Never
		},
	}
	e.Register(inj)
	e.MaxCycles = *cycles * 100
	e.RunUntil(func() bool { return e.Now() >= *cycles && !net.Busy() })
	if net.Busy() {
		fatal(fmt.Errorf("network did not drain (saturated); lower -load"))
	}

	classes := []noc.Class{noc.ClassData, noc.ClassCtrl, noc.ClassLock, noc.ClassWakeup}
	if *csv {
		// Machine-readable form, mirroring the experiment harness CSVs: one
		// row per traffic class with the run parameters repeated.
		fmt.Println("mesh,pattern,load,priority,class,injected,delivered,avg_net_lat,avg_tot_lat,max_net_lat")
		for _, c := range classes {
			if net.Stats.InjectedPkts[c] == 0 {
				continue
			}
			nl := &net.Stats.NetLatency[c]
			tl := &net.Stats.TotalLatency[c]
			fmt.Printf("%dx%d,%s,%.3f,%v,%s,%d,%d,%.3f,%.3f,%d\n",
				w, h, *pattern, *load, *priority, c,
				net.Stats.InjectedPkts[c], net.Stats.DeliveredPkts[c], nl.Mean(), tl.Mean(), nl.Max())
		}
	} else {
		fmt.Printf("mesh %dx%d, pattern %s, load %.3f, priority=%v, workers=%d, protocol=%s\n",
			w, h, *pattern, *load, *priority, *workers, prot.Name())
		fmt.Printf("drained at cycle %d (injection window %d)\n\n", e.Now(), *cycles)
		fmt.Printf("%-8s %10s %10s %12s %12s %12s\n", "class", "injected", "delivered", "avg net lat", "avg tot lat", "max net lat")
		for _, c := range classes {
			nl := &net.Stats.NetLatency[c]
			tl := &net.Stats.TotalLatency[c]
			if net.Stats.InjectedPkts[c] == 0 {
				continue
			}
			fmt.Printf("%-8s %10d %10d %12.1f %12.1f %12d\n",
				c, net.Stats.InjectedPkts[c], net.Stats.DeliveredPkts[c], nl.Mean(), tl.Mean(), nl.Max())
		}
		var traversed, conflicts uint64
		for _, r := range net.Routers {
			traversed += r.Stats.FlitsTraversed
			conflicts += r.Stats.SAConflicts
		}
		fmt.Printf("\nflit-hops %d, switch-allocation conflict cycles %d\n", traversed, conflicts)
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteTrace(f, rec.Events(), rec.Dropped()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "noctrace: wrote %s (%d events, %d evicted)\n", *traceOut, rec.Len(), rec.Dropped())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "noctrace:", err)
	os.Exit(1)
}
