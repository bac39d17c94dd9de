package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Fig 2 --

// Fig2Row is one bar pair of Fig. 2: the percentage of aggregate ROI time
// a baseline run spends executing critical sections vs. competing for
// them.
type Fig2Row struct {
	Name        string
	CSFraction  float64
	COHFraction float64
}

// Fig2 characterises the baseline (the motivation experiment): for every
// benchmark, the fraction of ROI time in critical-section execution and in
// competition overhead.
func Fig2(rs []BenchResult) []Fig2Row {
	out := make([]Fig2Row, len(rs))
	for i, r := range rs {
		out[i] = Fig2Row{Name: r.Profile.Name, CSFraction: r.Base.CSFraction, COHFraction: r.Base.COHFraction}
	}
	return out
}

// PrintFig2 renders the rows.
func PrintFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintln(w, "Fig. 2 — percentage of ROI finish time spent in critical sections (CS)")
	fmt.Fprintln(w, "and competition overhead (COH), baseline queue spinlock:")
	fmt.Fprintf(w, "%-10s %8s %8s\n", "benchmark", "CS", "COH")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8s %8s\n", r.Name, pct(r.CSFraction), pct(r.COHFraction))
	}
}

// --------------------------------------------------------------- Fig 10 --

// Fig10Result holds the execution profiles of one benchmark with and
// without OCOR.
type Fig10Result struct {
	Benchmark      string
	BaseTrace      string
	OCORTrace      string
	BaseROI        uint64
	OCORROI        uint64
	ROIImprovement float64
}

// Fig10 reproduces the execution-profile comparison: the first threads of
// bodytrack over an execution window, baseline vs OCOR, showing parallel /
// blocked / critical-section regions.
func Fig10(o Options) (Fig10Result, error) {
	o = o.withDefaults()
	p, err := workload.ByName("body")
	if err != nil {
		return Fig10Result{}, err
	}
	p = p.Scale(o.Scale)
	cells := []Cell{o.cell(p, o.Threads, false), o.cell(p, o.Threads, true)}
	for i := range cells {
		cells[i].TraceThreads = 16
	}
	res, err := o.grid(cells, nil)
	if err != nil {
		return Fig10Result{}, err
	}
	base, ocor := res[0], res[1]
	return Fig10Result{
		Benchmark:      p.Name,
		BaseTrace:      base.Timeline,
		OCORTrace:      ocor.Timeline,
		BaseROI:        base.Results.ROIFinish,
		OCORROI:        ocor.Results.ROIFinish,
		ROIImprovement: metrics.ROIImprovement(base.Results, ocor.Results),
	}, nil
}

// PrintFig10 renders both profiles.
func PrintFig10(w io.Writer, r Fig10Result) {
	fmt.Fprintf(w, "Fig. 10 — execution profile of %s (first 16 threads)\n\n", r.Benchmark)
	fmt.Fprintln(w, "(a) without OCOR:")
	fmt.Fprint(w, r.BaseTrace)
	fmt.Fprintln(w, "\n(b) with OCOR:")
	fmt.Fprint(w, r.OCORTrace)
	fmt.Fprintf(w, "\nROI finish: %d -> %d cycles (%.1f%% faster)\n", r.BaseROI, r.OCORROI, 100*r.ROIImprovement)
}

// --------------------------------------------------------------- Fig 11 --

// Fig11Row is one benchmark of Fig. 11: COH reduction and spinning-phase
// entry fractions.
type Fig11Row struct {
	Name           string
	COHImprovement float64
	BaseSpinFrac   float64
	OCORSpinFrac   float64
}

// Fig11 computes COH improvement (a) and spin-phase entry fractions (b),
// sorted most-improved first as the paper plots them.
func Fig11(rs []BenchResult) []Fig11Row {
	sorted := sortByCOHImprovement(rs)
	out := make([]Fig11Row, len(sorted))
	for i, r := range sorted {
		out[i] = Fig11Row{
			Name:           r.Profile.Name,
			COHImprovement: r.COHImprovement(),
			BaseSpinFrac:   r.Base.SpinFraction,
			OCORSpinFrac:   r.OCOR.SpinFraction,
		}
	}
	return out
}

// PrintFig11 renders the rows.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintln(w, "Fig. 11 — (a) COH reduction and (b) spinning-phase entry fraction:")
	fmt.Fprintf(w, "%-10s %10s %18s %18s %10s\n", "benchmark", "COH impr.", "spin entries (base)", "spin entries (OCOR)", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10s %18s %18s %10s\n", r.Name,
			pct(r.COHImprovement), pct(r.BaseSpinFrac), pct(r.OCORSpinFrac), pct(r.OCORSpinFrac-r.BaseSpinFrac))
	}
}

// --------------------------------------------------------------- Fig 12 --

// Fig12Row is one benchmark's characterisation: normalised critical-
// section access rate and network utilisation (measured, baseline run).
type Fig12Row struct {
	Name string
	// CSAccessRate is the lock-packet injection rate normalised to the
	// maximum across benchmarks (Fig. 12a).
	CSAccessRate float64
	// NetUtilisation is the flit injection rate normalised to the maximum
	// (Fig. 12b).
	NetUtilisation float64
}

// Fig12 measures the two characteristics the paper correlates improvement
// with. Rows keep the Fig. 11 order.
func Fig12(rs []BenchResult) []Fig12Row {
	sorted := sortByCOHImprovement(rs)
	var maxCS, maxNet float64
	for _, r := range sorted {
		if r.Base.LockInjRate > maxCS {
			maxCS = r.Base.LockInjRate
		}
		if r.Base.NetInjRate > maxNet {
			maxNet = r.Base.NetInjRate
		}
	}
	out := make([]Fig12Row, len(sorted))
	for i, r := range sorted {
		row := Fig12Row{Name: r.Profile.Name}
		if maxCS > 0 {
			row.CSAccessRate = r.Base.LockInjRate / maxCS
		}
		if maxNet > 0 {
			row.NetUtilisation = r.Base.NetInjRate / maxNet
		}
		out[i] = row
	}
	return out
}

// PrintFig12 renders the rows.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintln(w, "Fig. 12 — normalised (a) critical-section access rate and (b) network utilisation:")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "benchmark", "CS rate", "net util")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12s %12s\n", r.Name, pct(r.CSAccessRate), pct(r.NetUtilisation))
	}
}

// --------------------------------------------------------------- Fig 13 --

// Fig13Row compares critical-section execution time with and without OCOR
// (the paper's point: OCOR does not change CS execution itself).
type Fig13Row struct {
	Name string
	// Relative is OCOR CS time / baseline CS time (1.0 = unchanged).
	Relative       float64
	BaseCSFraction float64
	OCORCSFraction float64
}

// Fig13 computes relative critical-section execution time.
func Fig13(rs []BenchResult) []Fig13Row {
	out := make([]Fig13Row, len(rs))
	for i, r := range rs {
		row := Fig13Row{Name: r.Profile.Name, BaseCSFraction: r.Base.CSFraction, OCORCSFraction: r.OCOR.CSFraction}
		if r.Base.CSTime > 0 {
			row.Relative = float64(r.OCOR.CSTime) / float64(r.Base.CSTime)
		}
		out[i] = row
	}
	return out
}

// PrintFig13 renders the rows.
func PrintFig13(w io.Writer, rows []Fig13Row) {
	fmt.Fprintln(w, "Fig. 13 — relative critical-section execution time (OCOR / baseline):")
	fmt.Fprintf(w, "%-10s %10s\n", "benchmark", "relative")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.3fx\n", r.Name, r.Relative)
	}
}

// --------------------------------------------------------------- Fig 14 --

// Fig14Row is one benchmark of Fig. 14: the COH share of ROI time in both
// configurations and the resulting ROI finish-time improvement.
type Fig14Row struct {
	Name            string
	BaseCOHFraction float64
	OCORCOHFraction float64
	ROIImprovement  float64
}

// Fig14 computes the rows.
func Fig14(rs []BenchResult) []Fig14Row {
	out := make([]Fig14Row, len(rs))
	for i, r := range rs {
		out[i] = Fig14Row{
			Name:            r.Profile.Name,
			BaseCOHFraction: r.Base.COHFraction,
			OCORCOHFraction: r.OCOR.COHFraction,
			ROIImprovement:  r.ROIImprovement(),
		}
	}
	return out
}

// PrintFig14 renders the rows.
func PrintFig14(w io.Writer, rows []Fig14Row) {
	fmt.Fprintln(w, "Fig. 14 — (a) COH share of ROI finish time and (b) ROI improvement:")
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "benchmark", "COH (base)", "COH (OCOR)", "ROI impr.")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12s %12s %12s\n", r.Name,
			pct(r.BaseCOHFraction), pct(r.OCORCOHFraction), pct(r.ROIImprovement))
	}
}

// --------------------------------------------------------------- Fig 15 --

// Fig15Row is one benchmark's COH at one thread count, normalised to the
// baseline at the same scale.
type Fig15Row struct {
	Name    string
	Threads int
	// NormalizedCOH is OCOR COH / baseline COH at this scale (the paper
	// normalises the baseline to 100%).
	NormalizedCOH float64
}

// Fig15Threads are the scalability points of the paper.
var Fig15Threads = []int{4, 16, 32, 64}

// Fig15 runs the scalability sweep: 4, 16, 32 and 64 threads on meshes of
// matching size, reporting normalised COH per benchmark and scale.
func Fig15(o Options, progress io.Writer) ([]Fig15Row, error) {
	o = o.withDefaults()
	var cells []Cell
	for _, p := range o.profiles() {
		p = p.Scale(o.Scale)
		for _, th := range Fig15Threads {
			cells = append(cells, o.cell(p, th, false), o.cell(p, th, true))
		}
	}
	var out []Fig15Row
	_, err := o.grid(cells, pairs(func(k int, base, ocor CellResult) {
		c := cells[2*k]
		norm := 1.0
		if base.Results.TotalCOH > 0 {
			norm = float64(ocor.Results.TotalCOH) / float64(base.Results.TotalCOH)
		}
		out = append(out, Fig15Row{Name: c.Profile.Name, Threads: c.Threads, NormalizedCOH: norm})
		if progress != nil {
			fmt.Fprintf(progress, "fig15 %-8s %2d threads: normalised COH %s\n", c.Profile.Name, c.Threads, pct(norm))
		}
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrintFig15 renders the sweep as one row per benchmark.
func PrintFig15(w io.Writer, rows []Fig15Row) {
	fmt.Fprintln(w, "Fig. 15 — COH with OCOR, normalised to baseline (=100%), by thread count:")
	fmt.Fprintf(w, "%-10s", "benchmark")
	for _, th := range Fig15Threads {
		fmt.Fprintf(w, " %7d", th)
	}
	fmt.Fprintln(w)
	byName := map[string][]Fig15Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	for _, name := range order {
		fmt.Fprintf(w, "%-10s", name)
		for _, r := range byName[name] {
			fmt.Fprintf(w, " %7s", pct(r.NormalizedCOH))
		}
		fmt.Fprintln(w)
	}
}

// --------------------------------------------------------------- Fig 16 --

// Fig16Row is the COH improvement of one benchmark at one priority-level
// count.
type Fig16Row struct {
	Name           string
	Levels         int
	COHImprovement float64
}

// Fig16Levels are the sweep points; the paper justifies 8 as the default.
var Fig16Levels = []int{1, 2, 4, 8, 16, 32}

// Fig16Benchmarks are the two extreme programs the paper examines.
var Fig16Benchmarks = []string{"botss", "imag"}

// Fig16 sweeps the number of priority levels for the best- and least-
// improving benchmarks.
func Fig16(o Options, progress io.Writer) ([]Fig16Row, error) {
	o = o.withDefaults()
	// Per benchmark one baseline followed by one OCOR run per
	// priority-level count.
	var cells []Cell
	for _, name := range Fig16Benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p = p.Scale(o.Scale)
		cells = append(cells, o.cell(p, o.Threads, false))
		for _, lv := range Fig16Levels {
			c := o.cell(p, o.Threads, true)
			c.Levels = lv
			cells = append(cells, c)
		}
	}
	var out []Fig16Row
	var base CellResult
	_, err := o.grid(cells, func(i int, r CellResult) {
		c := cells[i]
		if !c.OCOR {
			base = r
			return
		}
		imp := metrics.COHImprovement(base.Results, r.Results)
		out = append(out, Fig16Row{Name: c.Profile.Name, Levels: c.Levels, COHImprovement: imp})
		if progress != nil {
			fmt.Fprintf(progress, "fig16 %-8s %2d levels: COH improvement %s\n", c.Profile.Name, c.Levels, pct(imp))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrintFig16 renders the sweep.
func PrintFig16(w io.Writer, rows []Fig16Row) {
	fmt.Fprintln(w, "Fig. 16 — COH improvement vs number of priority levels:")
	fmt.Fprintf(w, "%-10s", "benchmark")
	for _, lv := range Fig16Levels {
		fmt.Fprintf(w, " %7d", lv)
	}
	fmt.Fprintln(w)
	byName := map[string][]Fig16Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	for _, name := range order {
		fmt.Fprintf(w, "%-10s", name)
		for _, r := range byName[name] {
			fmt.Fprintf(w, " %7s", pct(r.COHImprovement))
		}
		fmt.Fprintln(w)
	}
}

// -------------------------------------------------------------- Table 3 --

// Table3Row is one benchmark line of the summary table.
type Table3Row struct {
	Name           string
	Suite          string
	CSRate         string
	NetUtil        string
	COHImprovement float64
	ROIImprovement float64
}

// Table3Summary is the full summary with suite and overall averages.
type Table3Summary struct {
	Rows []Table3Row
	// Averages keyed by suite name plus "Overall".
	AvgCOH map[string]float64
	AvgROI map[string]float64
}

// Table3 assembles the summary from a suite run, ordered by ROI
// improvement within each suite (lowest first, as the paper prints it).
func Table3(rs []BenchResult) Table3Summary {
	s := Table3Summary{AvgCOH: map[string]float64{}, AvgROI: map[string]float64{}}
	bySuite := map[string][]BenchResult{}
	for _, r := range rs {
		bySuite[r.Profile.Suite] = append(bySuite[r.Profile.Suite], r)
	}
	count := map[string]int{}
	for _, suite := range []string{"PARSEC", "OMP2012"} {
		list := bySuite[suite]
		sortByROI(list)
		for _, r := range list {
			s.Rows = append(s.Rows, Table3Row{
				Name:           r.Profile.Name,
				Suite:          suite,
				CSRate:         r.Profile.CSRate.String(),
				NetUtil:        r.Profile.NetUtil.String(),
				COHImprovement: r.COHImprovement(),
				ROIImprovement: r.ROIImprovement(),
			})
			s.AvgCOH[suite] += r.COHImprovement()
			s.AvgROI[suite] += r.ROIImprovement()
			s.AvgCOH["Overall"] += r.COHImprovement()
			s.AvgROI["Overall"] += r.ROIImprovement()
			count[suite]++
			count["Overall"]++
		}
	}
	for k, n := range count {
		if n > 0 {
			s.AvgCOH[k] /= float64(n)
			s.AvgROI[k] /= float64(n)
		}
	}
	return s
}

func sortByROI(rs []BenchResult) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].ROIImprovement() < rs[j-1].ROIImprovement(); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// PrintTable3 renders the summary.
func PrintTable3(w io.Writer, s Table3Summary) {
	fmt.Fprintln(w, "Table 3 — result summary (64-thread case):")
	fmt.Fprintf(w, "%-10s %-8s %-8s %-9s %10s %10s\n", "benchmark", "suite", "CS rate", "net util", "COH impr.", "ROI impr.")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-10s %-8s %-8s %-9s %10s %10s\n",
			r.Name, r.Suite, r.CSRate, r.NetUtil, pct(r.COHImprovement), pct(r.ROIImprovement))
	}
	for _, k := range []string{"PARSEC", "OMP2012", "Overall"} {
		fmt.Fprintf(w, "%-37s %10s %10s\n", k+" average", pct(s.AvgCOH[k]), pct(s.AvgROI[k]))
	}
}
