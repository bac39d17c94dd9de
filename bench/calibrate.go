package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// The benchmark host is shared: over minutes its speed for ordinary Go code
// drifts by 20-50%, more than most regressions worth catching, and the
// drift is common to every workload. So each pass is preceded by a
// calibration: a fixed Go workload that lives in the benchmark (a change to
// the simulator cannot move it) and slows down with the simulator (in an
// interleaved test on the baseline host their 20-second medians correlated
// at 0.96, while tight arithmetic or pointer-chasing loops barely slowed).
// The end-to-end times are reported in calibrated seconds: measured seconds
// times calRef over the run's median calibration time.

// calRef is the calibration time that defines a calibrated second: about
// what calibrate() takes on the baseline host (README.md, "Baseline").
const calRef = 17 * time.Millisecond

// calSamples is how many timings calibrate takes; the fastest one wins,
// because interference only ever slows a timing down.
const calSamples = 5

// calRecord is the calibration workload's data item.
type calRecord struct {
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Tags  map[string]string `json:"tags"`
	Child *calRecord        `json:"child,omitempty"`
}

var calPattern = regexp.MustCompile(`([a-z]+)-(\d+)\.(\w+)`)

// calSink keeps the calibration results alive.
var calSink int

// calibrate returns the fastest of calSamples timings of the calibration
// workload: JSON round trips, regular-expression matching, sorting through
// a closure and map updates — allocation-heavy, branchy Go like the
// simulator's.
func calibrate() time.Duration {
	recs := make([]calRecord, 300)
	for i := range recs {
		recs[i] = calRecord{
			Name:  "node-" + strconv.Itoa(i) + ".x",
			Vals:  []float64{float64(i), float64(i) / 3, 1e-3 * float64(i)},
			Tags:  map[string]string{"a": strconv.Itoa(i * 7), "b": fmt.Sprintf("%x", i*13)},
			Child: &calRecord{Name: "c"},
		}
	}
	best := time.Duration(1<<63 - 1)
	for s := 0; s < calSamples; s++ {
		t0 := time.Now()
		for rep := 0; rep < 10; rep++ {
			b, err := json.Marshal(recs)
			if err != nil {
				panic(err) // the records above always encode
			}
			var back []calRecord
			if err := json.Unmarshal(b, &back); err != nil {
				panic(err)
			}
			sort.Slice(back, func(i, j int) bool { return back[i].Tags["b"] < back[j].Tags["b"] })
			counts := map[string]int{}
			for _, r := range back {
				for _, m := range calPattern.FindAllStringSubmatch(r.Name+" ab-1.c cd-22.e", -1) {
					counts[m[1]+m[3]] += len(m[2])
				}
			}
			calSink += len(counts) + len(b)
		}
		best = min(best, time.Since(t0))
	}
	return best
}
