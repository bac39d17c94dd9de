// Command benchjson measures the wall-clock and allocation cost of
// regenerating the paper's headline experiments (Fig. 2, Fig. 10, Fig. 11)
// and writes a machine-readable JSON performance record. `make bench-json`
// uses it to track simulator performance across commits; each figure is
// regenerated from scratch, so a record reflects the full cost of that
// experiment rather than a memoised suite. The record carries the host's
// Go version, platform and CPU count beside the per-figure numbers.
//
// Usage:
//
//	benchjson                       # writes BENCH_9.json
//	benchjson -o perf.json -scale 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	_ "repro" // installs the platform cell runner into the experiments package
	"repro/internal/cli"
	"repro/internal/experiments"
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
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Threads   int      `json:"threads"`
	Scale     float64  `json:"scale"`
	Quick     bool     `json:"quick"`
	Records   []record `json:"benchmarks"`
}

func main() {
	run := cli.Register("benchjson", cli.Threads|cli.Seed|cli.Scale,
		cli.Run{Threads: 64, Seed: 1, Scale: 0.25})
	var (
		out   = flag.String("o", "BENCH_9.json", "output JSON file")
		quick = flag.Bool("quick", true, "use the representative benchmark subset")
	)
	run.Parse()

	opt := experiments.Options{Threads: run.Threads, Seed: run.Seed, Scale: run.Scale, Quick: *quick}
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
		Threads:   run.Threads,
		Scale:     run.Scale,
		Quick:     *quick,
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
			run.Fatal(fmt.Errorf("%s: %w", c.name, runErr))
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

	if err := cli.WriteJSON(*out, rep); err != nil {
		run.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", *out)
}
