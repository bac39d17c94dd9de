// Package export serialises experiment results to CSV files, one per
// paper figure/table, for plotting with external tools.
package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/experiments"
)

// writeCSV writes rows (first row = header) to w.
func writeCSV(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// writeFile writes rows to dir/name.
func writeFile(dir, name string, rows [][]string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return writeCSV(f, rows)
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// Fig2CSV renders Fig. 2 rows.
func Fig2CSV(rows []experiments.Fig2Row) [][]string {
	out := [][]string{{"benchmark", "cs_fraction", "coh_fraction"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, f(r.CSFraction), f(r.COHFraction)})
	}
	return out
}

// Fig11CSV renders Fig. 11 rows.
func Fig11CSV(rows []experiments.Fig11Row) [][]string {
	out := [][]string{{"benchmark", "coh_improvement", "spin_frac_base", "spin_frac_ocor"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, f(r.COHImprovement), f(r.BaseSpinFrac), f(r.OCORSpinFrac)})
	}
	return out
}

// Fig12CSV renders Fig. 12 rows.
func Fig12CSV(rows []experiments.Fig12Row) [][]string {
	out := [][]string{{"benchmark", "cs_access_rate", "net_utilisation"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, f(r.CSAccessRate), f(r.NetUtilisation)})
	}
	return out
}

// Fig13CSV renders Fig. 13 rows.
func Fig13CSV(rows []experiments.Fig13Row) [][]string {
	out := [][]string{{"benchmark", "relative_cs_time"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, f(r.Relative)})
	}
	return out
}

// Fig14CSV renders Fig. 14 rows.
func Fig14CSV(rows []experiments.Fig14Row) [][]string {
	out := [][]string{{"benchmark", "coh_fraction_base", "coh_fraction_ocor", "roi_improvement"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, f(r.BaseCOHFraction), f(r.OCORCOHFraction), f(r.ROIImprovement)})
	}
	return out
}

// Fig15CSV renders Fig. 15 rows.
func Fig15CSV(rows []experiments.Fig15Row) [][]string {
	out := [][]string{{"benchmark", "threads", "normalized_coh"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, strconv.Itoa(r.Threads), f(r.NormalizedCOH)})
	}
	return out
}

// Fig16CSV renders Fig. 16 rows.
func Fig16CSV(rows []experiments.Fig16Row) [][]string {
	out := [][]string{{"benchmark", "levels", "coh_improvement"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, strconv.Itoa(r.Levels), f(r.COHImprovement)})
	}
	return out
}

// Table3CSV renders the summary table.
func Table3CSV(s experiments.Table3Summary) [][]string {
	out := [][]string{{"benchmark", "suite", "cs_rate", "net_util", "coh_improvement", "roi_improvement"}}
	for _, r := range s.Rows {
		out = append(out, []string{r.Name, r.Suite, r.CSRate, r.NetUtil, f(r.COHImprovement), f(r.ROIImprovement)})
	}
	for _, k := range []string{"PARSEC", "OMP2012", "Overall"} {
		out = append(out, []string{k + " average", "", "", "", f(s.AvgCOH[k]), f(s.AvgROI[k])})
	}
	return out
}

// SuiteCSV renders the raw per-benchmark A/B results (everything the
// derived figures are computed from).
func SuiteCSV(rs []experiments.BenchResult) [][]string {
	out := [][]string{{
		"benchmark", "suite", "config", "threads", "roi_finish",
		"total_bt", "total_coh", "total_held", "cs_time",
		"acquisitions", "spin_acquires", "sleeps", "retries",
		"coh_fraction", "cs_fraction", "spin_fraction",
		"lock_inj_rate", "net_inj_rate", "lock_latency", "data_latency",
	}}
	for _, r := range rs {
		out = append(out,
			suiteRow(r, "baseline"),
			suiteRow(r, "ocor"),
		)
	}
	return out
}

func suiteRow(r experiments.BenchResult, cfg string) []string {
	m := r.Base
	if cfg == "ocor" {
		m = r.OCOR
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	return []string{
		r.Profile.Name, r.Profile.Suite, cfg, strconv.Itoa(m.Threads), u(m.ROIFinish),
		u(m.TotalBT), u(m.TotalCOH), u(m.TotalHeld), u(m.CSTime),
		u(m.Acquisitions), u(m.SpinAcquires), u(m.TotalSleeps), u(m.TotalRetries),
		f(m.COHFraction), f(m.CSFraction), f(m.SpinFraction),
		f(m.LockInjRate), f(m.NetInjRate), f(m.LockLatency), f(m.DataLatency),
	}
}

// RuntimeCSV renders the process allocation/GC counters sampled after an
// experiment run (one data row; keeps runs comparable across commits).
func RuntimeCSV(s experiments.RuntimeStats) [][]string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	return [][]string{
		{"mallocs", "total_alloc_bytes", "heap_alloc_bytes", "num_gc", "gc_pause_ns"},
		{u(s.Mallocs), u(s.TotalAlloc), u(s.HeapAlloc),
			strconv.FormatUint(uint64(s.NumGC), 10),
			strconv.FormatInt(s.PauseTotal.Nanoseconds(), 10)},
	}
}

// SuiteTables renders every figure/table CSV derivable from a suite run,
// keyed by file name.
func SuiteTables(rs []experiments.BenchResult) map[string][][]string {
	return map[string][][]string{
		"suite.csv":  SuiteCSV(rs),
		"fig2.csv":   Fig2CSV(experiments.Fig2(rs)),
		"fig11.csv":  Fig11CSV(experiments.Fig11(rs)),
		"fig12.csv":  Fig12CSV(experiments.Fig12(rs)),
		"fig13.csv":  Fig13CSV(experiments.Fig13(rs)),
		"fig14.csv":  Fig14CSV(experiments.Fig14(rs)),
		"table3.csv": Table3CSV(experiments.Table3(rs)),
	}
}

// WriteTables writes each table to dir/<its name>, creating dir if needed.
// Returns the file names written.
func WriteTables(dir string, tables map[string][][]string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var names []string
	for name, rows := range tables {
		if err := writeFile(dir, name, rows); err != nil {
			return names, fmt.Errorf("export: %s: %w", name, err)
		}
		names = append(names, name)
	}
	return names, nil
}
