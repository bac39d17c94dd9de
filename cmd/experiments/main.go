// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all                  # everything (minutes)
//	experiments -run fig11,table3         # selected experiments
//	experiments -run fig10 -scale 0.5     # shorter runs
//	experiments -run table3 -quick        # representative benchmark subset
//	experiments -trace fig10.json         # Perfetto trace of the Fig. 10 run
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"repro" // also installs the platform cell runner into the experiments package
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/profiling"
)

// known lists the names -run accepts.
var known = []string{"fig2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table3", "all"}

func main() {
	run := cli.Register("experiments", cli.Threads|cli.Seed|cli.Scale|cli.Protocol|cli.Jobs,
		cli.Run{Threads: 64, Seed: 1, Scale: 1})
	var (
		runList  = flag.String("run", "all", "comma-separated experiments: "+strings.Join(known, ","))
		quick    = flag.Bool("quick", false, "run a representative benchmark subset")
		verbose  = flag.Bool("v", true, "print per-run progress")
		csvDir   = flag.String("csv", "", "also write figure/table CSV files into this directory")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		traceOut = flag.String("trace", "", "write a Perfetto trace of the Fig. 10 bodytrack OCOR run to this file")
	)
	run.Parse()

	want := map[string]bool{}
	for _, name := range cli.List(strings.ToLower(*runList)) {
		if !slices.Contains(known, name) {
			run.Fatal(fmt.Errorf("unknown -run name %q (known: %s)", name, strings.Join(known, ", ")))
		}
		want[name] = true
	}

	if *traceOut != "" {
		if err := writeFig10Trace(*traceOut, run.Threads, run.Seed, run.Scale); err != nil {
			run.Fatal(err)
		}
		// A bare -trace invocation only captures the trace; combine with an
		// explicit -run to also regenerate figures in the same process.
		runSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "run" {
				runSet = true
			}
		})
		if !runSet {
			return
		}
	}

	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		run.Fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	opt := experiments.Options{Threads: run.Threads, Seed: run.Seed, Scale: run.Scale, Quick: *quick, Jobs: run.Jobs, Protocol: run.Protocol}
	all := want["all"]
	progress := os.Stderr
	if !*verbose {
		progress = nil
	}

	needSuite := all || want["fig2"] || want["fig11"] || want["fig12"] || want["fig13"] || want["fig14"] || want["table3"]
	var suite []experiments.BenchResult
	if needSuite {
		var err error
		suite, err = experiments.RunSuite(opt, progress)
		if err != nil {
			run.Fatal(err)
		}
	}

	out := os.Stdout
	// tables collects the CSV of every experiment that ran; -csv writes
	// them all at the end.
	tables := map[string][][]string{}
	if all || want["fig2"] {
		experiments.PrintFig2(out, experiments.Fig2(suite))
		fmt.Fprintln(out)
	}
	if all || want["fig10"] {
		r, err := experiments.Fig10(opt)
		if err != nil {
			run.Fatal(err)
		}
		experiments.PrintFig10(out, r)
		fmt.Fprintln(out)
	}
	if all || want["fig11"] {
		experiments.PrintFig11(out, experiments.Fig11(suite))
		fmt.Fprintln(out)
	}
	if all || want["fig12"] {
		experiments.PrintFig12(out, experiments.Fig12(suite))
		fmt.Fprintln(out)
	}
	if all || want["fig13"] {
		experiments.PrintFig13(out, experiments.Fig13(suite))
		fmt.Fprintln(out)
	}
	if all || want["fig14"] {
		experiments.PrintFig14(out, experiments.Fig14(suite))
		fmt.Fprintln(out)
	}
	if all || want["fig15"] {
		rows, err := experiments.Fig15(opt, progress)
		if err != nil {
			run.Fatal(err)
		}
		experiments.PrintFig15(out, rows)
		fmt.Fprintln(out)
		tables["fig15.csv"] = export.Fig15CSV(rows)
	}
	if all || want["fig16"] {
		rows, err := experiments.Fig16(opt, progress)
		if err != nil {
			run.Fatal(err)
		}
		experiments.PrintFig16(out, rows)
		fmt.Fprintln(out)
		tables["fig16.csv"] = export.Fig16CSV(rows)
	}
	if all || want["table3"] {
		experiments.PrintTable3(out, experiments.Table3(suite))
	}
	// Allocation/GC summary: sampled once after all experiments, written to
	// stderr so figure output on stdout stays byte-comparable across runs.
	rt := experiments.ReadRuntimeStats()
	experiments.PrintRuntime(os.Stderr, rt)
	if *csvDir != "" {
		if suite != nil {
			maps.Copy(tables, export.SuiteTables(suite))
		}
		tables["runtime.csv"] = export.RuntimeCSV(rt)
		names, err := export.WriteTables(*csvDir, tables)
		if err != nil {
			run.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d CSV files to %s\n", len(names), *csvDir)
	}
}

// writeFig10Trace runs the Fig. 10 configuration (bodytrack with OCOR
// enabled) with a structured-event recorder attached and exports the
// captured events as a Perfetto trace-event JSON file.
func writeFig10Trace(path string, threads int, seed uint64, scale float64) error {
	p, err := repro.Benchmark("body")
	if err != nil {
		return err
	}
	p = p.Scale(scale)
	rec := obs.NewRecorder(0)
	sys, err := repro.New(repro.Config{Benchmark: p, Threads: threads, OCOR: true, Seed: seed, Obs: rec})
	if err != nil {
		return err
	}
	if _, err := sys.Run(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, rec.Events(), rec.Dropped()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %s (%d events, %d evicted); open in ui.perfetto.dev\n",
		path, rec.Len(), rec.Dropped())
	return nil
}
