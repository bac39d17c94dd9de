// Command bench is the repository benchmark: it measures how fast the
// simulator regenerates the paper's results, end to end and layer by
// layer, and checks every simulated result while doing so.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bench -workload paper-suite -seed 1 -seconds 25 -trace 0
//	bench -workload paper-suite -seed 1 -trace 1 -spans spans.json
//	bench -workload all -seed 7
//	bench -compare A.jsonl B.jsonl
//	bench -update
//
// Each run measures one workload in this process for the time box, one
// simulation at a time, and prints one JSON line per metric, a
// results_digest line, and as its last line a summary object with the
// keys correct, attempted, failed and metrics. -trace 0 reports the
// end-to-end metrics; -trace 1 alternates untraced and traced passes and
// reports the per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// goldenSeeds are the seeds with committed result digests; any other seed
// is checked by the invariants and by repeatability alone.
var goldenSeeds = []uint64{1, 2, 3}

// scratchDir holds the fleet spools, inside the directory the benchmark
// runs from.
const scratchDir = ".bench_build"

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all (each in its own process)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "time box of the measurement, in seconds")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced passes too and reports per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write cell-level spans to this file as Chrome trace-event JSON")
		golden  = flag.String("golden", "bench/testdata/golden.json", "golden result digests")
		update  = flag.Bool("update", false, "rewrite the golden digests of every workload for seeds 1-3")
		compare = flag.Bool("compare", false, "compare two files of benchmark output: -compare A.jsonl B.jsonl")
	)
	flag.Parse()

	switch {
	case *compare:
		os.Exit(compareMain(flag.Args(), os.Stdout))
	case *update:
		if err := updateGolden(*golden); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	if *spans != "" && *trace != 1 {
		fatal(fmt.Errorf("-spans needs -trace 1"))
	}
	if *name == "all" {
		if *spans != "" {
			fatal(fmt.Errorf("-spans records one workload; run the workloads one at a time"))
		}
		runAll(names, *seed, *seconds, *trace, *golden)
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (known: %s, all)", *name, strings.Join(names, ", ")))
	}
	goldens, err := loadGolden(*golden)
	if err != nil {
		fatal(err)
	}

	o := options{
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		tmp:     scratchDir,
		golden:  goldens[w.name][strconv.FormatUint(*seed, 10)],
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	t0 := time.Now()
	rep := measure(w, *seed, o, tr)
	tr.span("workload "+w.name, tidMain, t0, time.Now(), nil)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "bench: cell failed:", p)
	}
	if *spans != "" {
		if err := tr.write(*spans); err != nil {
			fatal(err)
		}
	}
	if err := printReport(os.Stdout, w, *seed, o.trace, rep); err != nil {
		fatal(err)
	}
}

// metricLine is one printed metric.
type metricLine struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Kind     string  `json:"kind"`
}

// digestLine pins every simulated result of the run: equal digests mean
// byte-identical results, cell for cell.
type digestLine struct {
	Workload      string `json:"workload"`
	Seed          uint64 `json:"seed"`
	ResultsDigest string `json:"results_digest"`
}

// fidelityLine sets the simulated OCOR improvements beside the paper's.
// They are not gated: the digests already pin them.
type fidelityLine struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	COHImprPct  float64 `json:"sim.coh_impr_pct"`
	ROIImprPct  float64 `json:"sim.roi_impr_pct"`
	PaperCOHPct float64 `json:"paper.coh_impr_pct"`
	PaperROIPct float64 `json:"paper.roi_impr_pct"`
	Note        string  `json:"note"`
}

// summary is the last line of every run.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(out io.Writer, w workload, seed uint64, trace bool, rep report) error {
	defs, kind := endToEnd, "end_to_end"
	if trace {
		defs, kind = perLayer, "per_layer"
	}
	enc := json.NewEncoder(out)
	sum := summary{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]summaryValue{}}
	for _, d := range defs {
		v := rep.values[d.name]
		if err := enc.Encode(metricLine{w.name, seed, d.name, v, d.unit, kind}); err != nil {
			return fmt.Errorf("metric %s: %w", d.name, err)
		}
		sum.Metrics[d.name] = summaryValue{v, d.unit}
	}
	if err := enc.Encode(digestLine{w.name, seed, rep.digest}); err != nil {
		return err
	}
	if w.fidelity {
		if err := enc.Encode(fidelityLine{w.name, seed, rep.cohImpr, rep.roiImpr, 39.9, 14.4,
			"paper: 25 benchmarks in gem5 full-system; here: the quick six at scale 0.25 on synthetic models; unvalidated against hardware"}); err != nil {
			return err
		}
	}
	return enc.Encode(sum)
}

// runAll runs every workload in its own child process, so that each
// process's peak RSS belongs to one workload, and passes their output
// through.
func runAll(names []string, seed uint64, seconds, trace int, golden string) {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, name := range names {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-golden", golden)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// goldenFile maps workload → seed → cell label → SHA-256 of the cell's
// JSON-encoded metrics.Results.
type goldenFile map[string]map[string]map[string]string

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	return g, nil
}

// updateGolden runs one pass of every workload for each golden seed and
// writes the digests.
func updateGolden(path string) error {
	g := goldenFile{}
	for _, w := range workloads {
		g[w.name] = map[string]map[string]string{}
		for _, seed := range goldenSeeds {
			specs := w.specs(seed)
			p := onePass(w, specs, scratchDir, nil)
			cells := map[string]string{}
			for i, s := range specs {
				if p.errs[i] != nil {
					return fmt.Errorf("%s seed %d %s: %w", w.name, seed, s.label, p.errs[i])
				}
				cells[s.label] = p.digests[i]
			}
			g[w.name][strconv.FormatUint(seed, 10)] = cells
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d cells\n", w.name, seed, len(cells))
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
