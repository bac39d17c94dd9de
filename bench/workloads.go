package main

import (
	"fmt"

	"repro"
	"repro/internal/experiments"
)

// spec is one simulation cell of a workload: a label that names it in the
// goldens and spans, and the platform configuration it runs.
type spec struct {
	label string
	cfg   repro.Config
}

// workload is a fixed list of cells derived from the seed; one pass runs
// every cell once. A fleet workload hands its cells to fleet.Run as one
// sweep grid instead of running them one by one.
type workload struct {
	name  string
	why   string
	fleet bool
	// fidelity marks a workload made of baseline/OCOR pairs, whose paper
	// averages are printed beside the host metrics.
	fidelity bool
	specs    func(seed uint64) []spec
}

// The workloads stress different layers, so that an optimisation of one
// layer shows on the workload that exercises it and shows no change on one
// that bypasses it.
var workloads = []workload{
	{
		name:     "paper-suite",
		why:      "Quick six benchmarks x {baseline, OCOR} on the paper's 64-core 8x8 mesh: dense NoC, router allocation dominates.",
		fidelity: true,
		specs: func(seed uint64) []spec {
			return pairs([]string{"botss", "can", "body", "freq", "smith", "imag"}, 0.25, 64, 8, 1, seed)
		},
	},
	{
		name: "giant-sparse",
		why:  "Low/low benchmarks with 16 threads on a 64x64 mesh (98% idle nodes): activity-set scanning and platform construction.",
		specs: func(seed uint64) []spec {
			return pairs([]string{"imag", "smith", "ferret", "fluid", "bt331"}, 1, 16, 64, 1, seed)
		},
	},
	{
		name:  "fleet-sweep",
		why:   "Protocol x priority-level grid through the sweep fleet: the only workload with dedup, prefix checkpoints, journals and all five lock protocols.",
		fleet: true,
		specs: sweepGrid,
	},
	{
		name: "parallel-w2",
		why:  "256 threads on a 16x16 mesh with Workers=2: the only workload that runs the fused parallel NoC tick.",
		specs: func(seed uint64) []spec {
			return pairs([]string{"can", "body"}, 0.1, 256, 16, 2, seed)
		},
	},
}

// pairs returns a baseline and an OCOR cell for each named benchmark, run
// with the given iteration scale, thread count, square mesh width and
// intra-simulation worker count.
func pairs(names []string, scale float64, threads, mesh, workers int, seed uint64) []spec {
	var out []spec
	for _, name := range names {
		p, err := repro.Benchmark(name)
		if err != nil {
			panic(err) // the names above are catalog entries
		}
		base := repro.Config{
			Benchmark: p.Scale(scale), Threads: threads, MeshWidth: mesh, MeshHeight: mesh,
			Seed: seed, Workers: workers,
		}
		ocor := base
		ocor.OCOR = true
		out = append(out,
			spec{fmt.Sprintf("%s/base/s%d", name, seed), base},
			spec{fmt.Sprintf("%s/ocor/s%d", name, seed), ocor})
	}
	return out
}

// sweepGrid is the fleet-sweep grid in cmd/sweep's cell order: for each
// benchmark and lock protocol, a baseline and an OCOR cell per priority
// level. The baseline never reads the level, so it repeats once per level
// and the fleet simulates it once; every cell of one benchmark and OCOR
// setting shares one warm-start prefix.
func sweepGrid(seed uint64) []spec {
	var out []spec
	for _, name := range []string{"botss", "can", "body"} {
		p, err := repro.Benchmark(name)
		if err != nil {
			panic(err)
		}
		p = p.Scale(0.2)
		for _, proto := range []string{"baseline", "cna", "mcs", "mutable", "reciprocating"} {
			for _, levels := range []int{1, 2, 4, 8, 16, 32} {
				base := repro.Config{Benchmark: p, Threads: 16, Seed: seed, Protocol: proto, Workers: 1}
				ocor := base
				ocor.OCOR = true
				ocor.PriorityLevels = levels
				out = append(out,
					spec{fmt.Sprintf("%s/%s/base/s%d", name, proto, seed), base},
					spec{fmt.Sprintf("%s/%s/ocor-l%d/s%d", name, proto, levels, seed), ocor})
			}
		}
	}
	return out
}

// gridCell converts a spec into the fleet's cell type, the way cmd/sweep
// builds its grid.
func gridCell(s spec) experiments.Cell {
	return experiments.Cell{
		Profile: s.cfg.Benchmark, Threads: s.cfg.Threads, OCOR: s.cfg.OCOR,
		Levels: s.cfg.PriorityLevels, Seed: s.cfg.Seed, Protocol: s.cfg.Protocol,
		Workers: s.cfg.Workers,
	}
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
