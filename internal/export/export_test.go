package export

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func sampleResults() []experiments.BenchResult {
	mk := func(name, suite string, coh uint64, ocor bool) metrics.Results {
		c := coh
		roi := uint64(100000)
		if ocor {
			c = coh / 2
			roi = 90000
		}
		return metrics.Results{
			Benchmark: name, OCOR: ocor, Threads: 64, Nodes: 64,
			ROIFinish: roi, TotalCOH: c, TotalBT: c * 2, TotalHeld: c,
			CSTime: 5000, Acquisitions: 100, SpinFraction: 0.5,
			COHFraction: float64(c) / float64(roi*64),
			CSFraction:  5000 / float64(roi*64),
			LockInjRate: 0.01, NetInjRate: 0.1,
		}
	}
	var out []experiments.BenchResult
	for i, name := range []string{"alpha", "beta"} {
		suite := "PARSEC"
		if i == 1 {
			suite = "OMP2012"
		}
		p := workload.Profile{Name: name, Suite: suite, Locks: 2, GapMemOps: 10}
		out = append(out, experiments.BenchResult{
			Profile: p,
			Base:    mk(name, suite, uint64(1000*(i+1)), false),
			OCOR:    mk(name, suite, uint64(1000*(i+1)), true),
		})
	}
	return out
}

func parse(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestWriteSuite(t *testing.T) {
	dir := t.TempDir()
	rs := sampleResults()
	names, err := WriteTables(dir, SuiteTables(rs))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 7 {
		t.Fatalf("wrote %d files: %v", len(names), names)
	}
	for _, want := range []string{"suite.csv", "fig2.csv", "fig11.csv", "fig12.csv", "fig13.csv", "fig14.csv", "table3.csv"} {
		rows := parse(t, filepath.Join(dir, want))
		if len(rows) < 2 {
			t.Fatalf("%s has no data rows", want)
		}
		// Rectangular: every row matches the header width.
		for i, r := range rows {
			if len(r) != len(rows[0]) {
				t.Fatalf("%s row %d has %d fields, header has %d", want, i, len(r), len(rows[0]))
			}
		}
	}
	// suite.csv: 2 benchmarks x 2 configs + header.
	if rows := parse(t, filepath.Join(dir, "suite.csv")); len(rows) != 5 {
		t.Fatalf("suite.csv rows = %d", len(rows))
	}
	// table3.csv ends with the three average lines.
	t3 := parse(t, filepath.Join(dir, "table3.csv"))
	if got := t3[len(t3)-1][0]; !strings.Contains(got, "Overall") {
		t.Fatalf("last table3 row: %v", t3[len(t3)-1])
	}
}

func TestFigCSVContents(t *testing.T) {
	rs := sampleResults()
	f11 := Fig11CSV(experiments.Fig11(rs))
	if f11[0][0] != "benchmark" || len(f11) != 3 {
		t.Fatalf("fig11 csv: %v", f11)
	}
	// Improvement column parses as ~0.5.
	if !strings.HasPrefix(f11[1][1], "0.5") {
		t.Fatalf("fig11 improvement cell: %v", f11[1])
	}
	f15 := Fig15CSV([]experiments.Fig15Row{{Name: "x", Threads: 64, NormalizedCOH: 0.25}})
	if f15[1][1] != "64" || !strings.HasPrefix(f15[1][2], "0.25") {
		t.Fatalf("fig15 csv: %v", f15)
	}
	f16 := Fig16CSV([]experiments.Fig16Row{{Name: "x", Levels: 8, COHImprovement: 0.75}})
	if f16[1][1] != "8" {
		t.Fatalf("fig16 csv: %v", f16)
	}
}

func TestWriteSuiteBadDir(t *testing.T) {
	// A file path as the directory must fail.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTables(filepath.Join(blocker, "sub"), SuiteTables(sampleResults())); err == nil {
		t.Fatal("expected error for unusable directory")
	}
}
