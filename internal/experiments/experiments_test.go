package experiments

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fakeRunner produces deterministic synthetic results: OCOR halves COH and
// takes 10% off the ROI; deeper-contention profiles (fewer locks) get
// larger baselines. Trace cells get a canned timeline.
func fakeRunner(c Cell) (CellResult, error) {
	p := c.Profile
	base := uint64(1000 * (16 - p.Locks))
	r := metrics.Results{
		Benchmark:    p.Name,
		OCOR:         c.OCOR,
		Threads:      c.Threads,
		Nodes:        c.Threads,
		ROIFinish:    100000,
		TotalCOH:     base,
		TotalBT:      base * 2,
		TotalHeld:    base,
		CSTime:       5000,
		Acquisitions: 100,
		SpinFraction: 0.4,
		LockInjRate:  0.001 * float64(16-p.Locks),
		NetInjRate:   0.01 * float64(p.GapMemOps),
	}
	if c.OCOR {
		r.TotalCOH = base / 2
		r.ROIFinish = 90000
		r.SpinFraction = 0.8
		if c.Levels > 0 && c.Levels < 8 {
			// Coarser priority levels recover less COH.
			r.TotalCOH = base - base/2*uint64(c.Levels)/8
		}
	}
	aggregate := float64(r.ROIFinish) * float64(r.Threads)
	r.COHFraction = float64(r.TotalCOH) / aggregate
	r.CSFraction = float64(r.CSTime) / aggregate
	out := CellResult{Results: r}
	if c.TraceThreads > 0 {
		out.Timeline = "t00 |...###CC...|\nbreakdown: parallel 60.0% blocked 35.0% critical-section 5.0%\n"
	}
	return out, nil
}

// withRunner installs run as the cell runner for the test's duration.
func withRunner(t *testing.T, run func(Cell) (CellResult, error)) {
	t.Helper()
	old := newRunner
	InstallRunner(func(RunOptions) func(Cell) (CellResult, error) { return run })
	t.Cleanup(func() { newRunner = old })
}

func withFake(t *testing.T) { withRunner(t, fakeRunner) }

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Threads != 64 || o.Seed != 1 || o.Scale != 1 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestQuickSubset(t *testing.T) {
	full := Options{}.profiles()
	quick := Options{Quick: true}.profiles()
	if len(full) != 25 {
		t.Fatalf("full = %d", len(full))
	}
	if len(quick) != len(quickSet) {
		t.Fatalf("quick = %d, want %d", len(quick), len(quickSet))
	}
}

func TestRunSuiteAndFigures(t *testing.T) {
	withFake(t)
	rs, err := RunSuite(Options{Quick: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(quickSet) {
		t.Fatalf("suite size %d", len(rs))
	}
	for _, r := range rs {
		if imp := r.COHImprovement(); imp < 0.49 || imp > 0.51 {
			t.Fatalf("%s improvement %f", r.Profile.Name, imp)
		}
		if imp := r.ROIImprovement(); imp < 0.099 || imp > 0.101 {
			t.Fatalf("%s roi %f", r.Profile.Name, imp)
		}
		if g := r.SpinGain(); g < 0.39 || g > 0.41 {
			t.Fatalf("%s spin gain %f", r.Profile.Name, g)
		}
	}

	// Fig 2 keeps catalog order and baseline numbers.
	f2 := Fig2(rs)
	if len(f2) != len(rs) || f2[0].Name != rs[0].Profile.Name {
		t.Fatal("fig2 rows wrong")
	}

	// Fig 11 sorts by improvement descending.
	f11 := Fig11(rs)
	for i := 1; i < len(f11); i++ {
		if f11[i-1].COHImprovement < f11[i].COHImprovement {
			t.Fatal("fig11 not sorted")
		}
	}

	// Fig 12 normalises to max = 1.
	f12 := Fig12(rs)
	var maxCS, maxNet float64
	for _, r := range f12 {
		if r.CSAccessRate > maxCS {
			maxCS = r.CSAccessRate
		}
		if r.NetUtilisation > maxNet {
			maxNet = r.NetUtilisation
		}
	}
	if maxCS != 1 || maxNet != 1 {
		t.Fatalf("fig12 normalisation: %f %f", maxCS, maxNet)
	}

	// Fig 13: fake CS time identical in both runs -> ratio 1.
	for _, r := range Fig13(rs) {
		if r.Relative != 1 {
			t.Fatalf("fig13 relative = %f", r.Relative)
		}
	}

	// Fig 14 mirrors ROI improvements.
	for _, r := range Fig14(rs) {
		if r.ROIImprovement < 0.099 || r.ROIImprovement > 0.101 {
			t.Fatalf("fig14 roi = %f", r.ROIImprovement)
		}
	}
}

func TestTable3Averages(t *testing.T) {
	withFake(t)
	rs, err := RunSuite(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Table3(rs)
	if len(s.Rows) != 25 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// Suites keep their blocks and each block is sorted by ROI improvement.
	if s.Rows[0].Suite != "PARSEC" || s.Rows[24].Suite != "OMP2012" {
		t.Fatal("suite blocks wrong")
	}
	for _, k := range []string{"PARSEC", "OMP2012", "Overall"} {
		if s.AvgCOH[k] < 0.49 || s.AvgCOH[k] > 0.51 {
			t.Fatalf("%s avg COH %f", k, s.AvgCOH[k])
		}
	}
}

func TestFig10(t *testing.T) {
	withFake(t)
	r, err := Fig10(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "body" || r.BaseTrace == "" || r.OCORTrace == "" {
		t.Fatalf("fig10 result: %+v", r)
	}
	if r.ROIImprovement < 0.09 {
		t.Fatalf("fig10 improvement %f", r.ROIImprovement)
	}
}

func TestFig15(t *testing.T) {
	withFake(t)
	rows, err := Fig15(Options{Quick: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(quickSet)*len(Fig15Threads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormalizedCOH < 0.49 || r.NormalizedCOH > 0.51 {
			t.Fatalf("normalised COH %f", r.NormalizedCOH)
		}
	}
}

func TestFig16(t *testing.T) {
	withFake(t)
	rows, err := Fig16(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig16Benchmarks)*len(Fig16Levels) {
		t.Fatalf("rows = %d", len(rows))
	}
	// The fake improves with levels: check monotone non-decreasing per
	// benchmark up to 8 levels.
	for b := 0; b < len(Fig16Benchmarks); b++ {
		prev := -1.0
		for l, lv := range Fig16Levels {
			r := rows[b*len(Fig16Levels)+l]
			if lv <= 8 && r.COHImprovement < prev {
				t.Fatalf("%s: improvement fell at %d levels", r.Name, lv)
			}
			prev = r.COHImprovement
		}
	}
}

func TestPrinters(t *testing.T) {
	withFake(t)
	rs, _ := RunSuite(Options{Quick: true}, nil)
	var sb strings.Builder
	PrintFig2(&sb, Fig2(rs))
	PrintFig11(&sb, Fig11(rs))
	PrintFig12(&sb, Fig12(rs))
	PrintFig13(&sb, Fig13(rs))
	PrintFig14(&sb, Fig14(rs))
	PrintTable3(&sb, Table3(rs))
	f10, _ := Fig10(Options{})
	PrintFig10(&sb, f10)
	f15, _ := Fig15(Options{Quick: true}, nil)
	PrintFig15(&sb, f15)
	f16, _ := Fig16(Options{}, nil)
	PrintFig16(&sb, f16)
	out := sb.String()
	for _, frag := range []string{"Fig. 2", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16", "Table 3", "average"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("printer output missing %q", frag)
		}
	}
}

func TestNoRunnerInstalled(t *testing.T) {
	old := newRunner
	InstallRunner(nil)
	defer func() { newRunner = old }()
	if _, err := RunSuite(Options{}, nil); err == nil {
		t.Fatal("missing runner not detected")
	}
	if _, err := Fig10(Options{}); err == nil {
		t.Fatal("missing tracer not detected")
	}
	if _, err := Fig15(Options{}, nil); err == nil {
		t.Fatal("missing runner not detected in fig15")
	}
	if _, err := Fig16(Options{}, nil); err == nil {
		t.Fatal("missing runner not detected in fig16")
	}
}

// slowFakeRunner adds a tiny index-dependent delay so parallel completions
// arrive out of order, stressing the ordered reassembly.
func slowFakeRunner(c Cell) (CellResult, error) {
	d := time.Duration(len(c.Profile.Name)%3) * time.Millisecond
	if c.OCOR {
		d += time.Millisecond
	}
	time.Sleep(d)
	return fakeRunner(c)
}

// TestParallelMatchesSerial checks that RunSuite, Fig15 and Fig16 return the
// same results and identical progress bytes for any Jobs setting.
func TestParallelMatchesSerial(t *testing.T) {
	withRunner(t, slowFakeRunner)

	type harness struct {
		name string
		run  func(o Options, w io.Writer) (any, error)
	}
	harnesses := []harness{
		{"RunSuite", func(o Options, w io.Writer) (any, error) { return RunSuite(o, w) }},
		{"Fig15", func(o Options, w io.Writer) (any, error) { return Fig15(o, w) }},
		{"Fig16", func(o Options, w io.Writer) (any, error) { return Fig16(o, w) }},
	}
	for _, h := range harnesses {
		var wantRes any
		var wantOut string
		for i, jobs := range []int{1, 2, 8} {
			o := Options{Quick: true, Jobs: jobs}
			var buf bytes.Buffer
			res, err := h.run(o, &buf)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", h.name, jobs, err)
			}
			if i == 0 {
				wantRes, wantOut = res, buf.String()
				continue
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("%s: jobs=%d results differ from jobs=1", h.name, jobs)
			}
			if buf.String() != wantOut {
				t.Fatalf("%s: jobs=%d progress differs from jobs=1:\n%s\nvs\n%s", h.name, jobs, buf.String(), wantOut)
			}
		}
	}
}

// TestRunSuiteErrorIsDeterministic makes sure a failing benchmark surfaces
// the same error regardless of parallelism.
func TestRunSuiteErrorIsDeterministic(t *testing.T) {
	withRunner(t, func(c Cell) (CellResult, error) {
		if c.Profile.Name == "can" && c.OCOR {
			return CellResult{}, errForced
		}
		return fakeRunner(c)
	})

	var want string
	for _, jobs := range []int{1, 4} {
		_, err := RunSuite(Options{Quick: true, Jobs: jobs}, nil)
		if err == nil {
			t.Fatalf("jobs=%d: expected error", jobs)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("jobs=%d error %q, want %q", jobs, err.Error(), want)
		}
	}
}

var errForced = errors.New("forced failure")

// TestFaultSweepOutcomes checks that failed fault cells become data
// points, not sweep errors, and that a stop request truncates the sweep
// to its completed points.
func TestFaultSweepOutcomes(t *testing.T) {
	withRunner(t, func(c Cell) (CellResult, error) {
		if !c.Faulted() || !c.Recovery {
			t.Errorf("fault sweep ran a cell without its fault knobs: %+v", c)
		}
		if c.OCOR && c.Faults.DropRate > 0 {
			return CellResult{Failure: "wedged"}, nil
		}
		return fakeRunner(c)
	})
	sweep, err := RunFaultSweep(FaultOptions{Rates: []float64{0, 0.01}, Recovery: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 || sweep.Truncated {
		t.Fatalf("sweep = %+v", sweep)
	}
	if p := sweep.Points[1]; !p.Base.OK || p.OCOR.OK || p.OCOR.Failure != "wedged" {
		t.Fatalf("rate %g outcomes: base %+v, ocor %+v", p.Rate, p.Base, p.OCOR)
	}

	stop := make(chan struct{})
	close(stop)
	sweep, err = RunFaultSweep(FaultOptions{Rates: []float64{0, 0.01}, Recovery: true, Stop: stop}, nil)
	if err != nil || !sweep.Truncated || len(sweep.Points) != 0 {
		t.Fatalf("stopped sweep = %+v, %v; want truncated with no points", sweep, err)
	}
}
