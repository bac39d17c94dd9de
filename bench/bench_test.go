package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code (2-8 allowed)", n, len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) > 16 || len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code (at most 16)", len(bj.EndToEnd), len(endToEnd))
	}
	if len(bj.PerLayer) > 128 || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
		seen[m.Name] = true
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound (%v < %v)", setupBound, maxBound)
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q is not a valid name", name)
		}
	}
}

// shrink keeps a workload's last baseline/OCOR pair at one iteration and
// at most 64 threads, so the tests stay quick while every path (fleet,
// Workers=2, giant mesh) still runs.
func shrink(w workload) workload {
	full := w.specs
	w.specs = func(seed uint64) []spec {
		all := full(seed)
		specs := append([]spec(nil), all[len(all)-2:]...)
		for i := range specs {
			c := &specs[i].cfg
			c.Benchmark = c.Benchmark.Scale(0.02)
			if c.Threads > 64 {
				c.Threads, c.MeshWidth, c.MeshHeight = 64, 8, 8
			}
		}
		return specs
	}
	return w
}

func TestTracedPassMatchesUntraced(t *testing.T) {
	tmp := t.TempDir()
	for _, full := range workloads {
		w := shrink(full)
		specs := w.specs(1)
		plain := onePass(w, specs, tmp, nil)
		traced := onePass(w, specs, tmp, newTracer())
		for i, s := range specs {
			if plain.errs[i] != nil || traced.errs[i] != nil {
				t.Fatalf("%s %s: untraced %v, traced %v", w.name, s.label, plain.errs[i], traced.errs[i])
			}
			if plain.digests[i] != traced.digests[i] {
				t.Errorf("%s %s (workers %d): traced result differs from untraced", w.name, s.label, s.cfg.Workers)
			}
		}
		work := "noc.ticks"
		if w.fleet {
			work = "fleet.leases"
		}
		if traced.layer[work] == 0 {
			t.Errorf("%s: traced pass recorded no %s", w.name, work)
		}
	}
}

// TestReports runs every shrunk workload untraced and traced through the
// same path as the command and checks what it prints: every metric named
// in BENCHMARK.json with its unit and kind, the summary as the last line,
// positive end-to-end values, and self times that account for the traced
// pass within 5%.
func TestReports(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	units := map[string]string{}
	kinds := map[string]string{}
	for _, m := range bj.EndToEnd {
		units[m.Name], kinds[m.Name] = m.Unit, "end_to_end"
	}
	for _, m := range bj.PerLayer {
		units[m.Name], kinds[m.Name] = m.Unit, "per_layer"
	}
	tmp := t.TempDir()
	for _, full := range workloads {
		w := shrink(full)
		for _, trace := range []bool{false, true} {
			var tr *tracer
			if trace {
				tr = newTracer()
			}
			rep := measure(w, 1, options{seconds: time.Nanosecond, trace: trace, tmp: tmp}, tr)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d cells failed: %v", w.name, trace, rep.failed, rep.attempted, rep.problems)
			}
			if r := rep.values["trace.residual_frac"]; trace && !(r >= 0 && r <= 0.05) {
				t.Errorf("%s: self times leave %.3f of the traced pass unaccounted", w.name, r)
			}
			var out bytes.Buffer
			if err := printReport(&out, w, 1, trace, rep); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, w.name, out.String(), trace, units, kinds)
		}
	}
}

func checkOutput(t *testing.T, wname, out string, trace bool, units, kinds map[string]string) {
	t.Helper()
	want := "end_to_end"
	if trace {
		want = "per_layer"
	}
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	printed := 0
	for _, l := range lines[:len(lines)-1] {
		var m metricLine
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("%s: %v in %s", wname, err, l)
		}
		if m.Metric == "" {
			continue
		}
		printed++
		if !metricName.MatchString(m.Metric) || units[m.Metric] != m.Unit || kinds[m.Metric] != m.Kind || m.Kind != want {
			t.Errorf("%s: printed %+v, BENCHMARK.json has unit %q kind %q", wname, m, units[m.Metric], kinds[m.Metric])
		}
	}
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line: %v", wname, err)
	}
	if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
		t.Fatalf("%s: last line %s", wname, lines[len(lines)-1])
	}
	var metrics map[string]summaryValue
	if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != printed {
		t.Errorf("%s: summary has %d metrics, %d printed", wname, len(metrics), printed)
	}
	for name, v := range metrics {
		if kinds[name] != want || units[name] != v.Unit {
			t.Errorf("%s: summary metric %s %+v", wname, name, v)
		}
		if !trace && !(v.Value > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", wname, name, v.Value)
		}
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	w := shrink(workloads[1])
	tmp := t.TempDir()
	specs := w.specs(1)
	p := onePass(w, specs, tmp, nil)
	golden := map[string]string{}
	for i, s := range specs {
		golden[s.label] = p.digests[i]
	}
	o := options{seconds: time.Nanosecond, tmp: tmp, golden: golden}
	if rep := measure(w, 1, o, nil); rep.failed != 0 {
		t.Fatalf("matching goldens: %d cells failed: %v", rep.failed, rep.problems)
	}
	golden[specs[0].label] = strings.Repeat("0", 64)
	rep := measure(w, 1, o, nil)
	if rep.failed == 0 {
		t.Fatal("a corrupted golden digest did not fail its cell")
	}
	var out bytes.Buffer
	if err := printReport(&out, w, 1, false, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("summary does not report the failure:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{"pass_wall_s", "s", "lower", 0.1}
	rate := metricDef{"sim_cycles_per_s", "cycles/s", "higher", 0.1}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{wall, base, base, "not worse"},
		{wall, base, scaled(1.05), "not worse"},
		{wall, base, scaled(1.2), "worse"},
		{wall, base, scaled(0.8), "better"},
		{rate, base, scaled(0.8), "worse"},
		{rate, base, scaled(1.2), "better"},
		{wall, base, []float64{8, 12, 9, 13, 8, 12, 9, 13, 8, 12}, "unresolved"},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}
