// Command benchjson measures the wall-clock and allocation cost of
// regenerating the paper's headline experiments (Fig. 2, Fig. 10, Fig. 11)
// and writes a machine-readable JSON performance record. `make bench-json`
// uses it to track simulator performance across commits; each figure is
// regenerated from scratch, so a record reflects the full cost of that
// experiment rather than a memoised suite. The record carries the host's
// Go version, platform and CPU count beside the per-figure numbers; when
// -workers exceeds the CPUs, the report says so in a "caveat" field.
//
// Usage:
//
//	benchjson                       # writes BENCH_9.json
//	benchjson -o perf.json -scale 0.5 -workers 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro" // installs the platform cell runner into the experiments package

	"repro/internal/experiments"
	"repro/internal/par"
)

// record is one benchmark measurement in the JSON output.
type record struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	WallSeconds float64 `json:"wall_seconds_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the top-level JSON document.
type report struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CPUs      int     `json:"cpus"`
	Threads   int     `json:"threads"`
	Scale     float64 `json:"scale"`
	Quick     bool    `json:"quick"`
	Workers   int     `json:"workers"`
	// Caveat is set when -workers exceeds the host's CPUs: the figure
	// timings then reflect time-slicing, not parallelism, and must not be
	// compared across hosts.
	Caveat  string   `json:"caveat,omitempty"`
	Records []record `json:"benchmarks"`
}

func main() {
	var (
		out     = flag.String("o", "BENCH_9.json", "output JSON file")
		threads = flag.Int("threads", 64, "thread/core count")
		scale   = flag.Float64("scale", 0.25, "iteration scale factor")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		quick   = flag.Bool("quick", true, "use the representative benchmark subset")
		workers = flag.Int("workers", 1, "intra-simulation tick worker count for the per-figure benchmarks")
	)
	flag.Parse()

	// The benchmarks must run against the real platform, not a test fake.
	_ = repro.Catalog()

	if err := (&repro.Config{Threads: *threads, Workers: *workers}).Validate(); err != nil {
		fatal(err)
	}
	caveat := par.WorkerCaveat(*workers)
	if caveat != "" {
		fmt.Fprintln(os.Stderr, "benchjson: warning:", caveat)
	}
	opt := experiments.Options{Threads: *threads, Seed: *seed, Scale: *scale, Quick: *quick, Workers: *workers}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"Fig2", func() error {
			rs, err := experiments.RunSuite(opt, nil)
			if err != nil {
				return err
			}
			experiments.Fig2(rs)
			return nil
		}},
		{"Fig10", func() error {
			_, err := experiments.Fig10(opt)
			return err
		}},
		{"Fig11", func() error {
			rs, err := experiments.RunSuite(opt, nil)
			if err != nil {
				return err
			}
			experiments.Fig11(rs)
			return nil
		}},
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Threads:   *threads,
		Scale:     *scale,
		Quick:     *quick,
		Workers:   *workers,
		Caveat:    caveat,
	}
	for _, c := range cases {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.fn(); err != nil {
					runErr = err
					b.Fatal(err)
				}
			}
		})
		if runErr != nil {
			fatal(fmt.Errorf("%s: %w", c.name, runErr))
		}
		rec := record{
			Name:        c.name,
			Iterations:  r.N,
			WallSeconds: r.T.Seconds() / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-6s %8.2fs/op  %12d allocs/op  %14d B/op\n",
			rec.Name, rec.WallSeconds, rec.AllocsPerOp, rec.BytesPerOp)
		rep.Records = append(rep.Records, rec)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
