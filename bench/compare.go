package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runSet is one side of a comparison: every end-to-end value by workload
// and metric in file order, the digests seen per workload and seed, and
// the failure counts of the runs' summary lines.
type runSet struct {
	values            map[[2]string][]float64
	digests           map[[2]string]map[string]bool
	attempted, failed int
}

// readRuns parses concatenated benchmark output. Lines that are not
// benchmark JSON are skipped.
func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[[2]string][]float64{}, digests: map[[2]string]map[string]bool{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var l struct {
			Workload      string  `json:"workload"`
			Seed          uint64  `json:"seed"`
			Metric        string  `json:"metric"`
			Value         float64 `json:"value"`
			Kind          string  `json:"kind"`
			ResultsDigest string  `json:"results_digest"`
			Correct       *bool   `json:"correct"`
			Attempted     int     `json:"attempted"`
			Failed        int     `json:"failed"`
		}
		if json.Unmarshal(sc.Bytes(), &l) != nil {
			continue
		}
		switch {
		case l.Correct != nil:
			rs.attempted += l.Attempted
			rs.failed += l.Failed
		case l.ResultsDigest != "":
			k := [2]string{l.Workload, fmt.Sprint(l.Seed)}
			if rs.digests[k] == nil {
				rs.digests[k] = map[string]bool{}
			}
			rs.digests[k][l.ResultsDigest] = true
		case l.Kind == "end_to_end":
			k := [2]string{l.Workload, l.Metric}
			rs.values[k] = append(rs.values[k], l.Value)
		}
	}
	return rs, sc.Err()
}

// verdict applies the benchmark's rules to one workload and end-to-end
// metric, A being the parent and B the change:
//   - better: B wins at least nine in ten of ten or more alternating pairs
//     and the medians differ by more than A's quartile spread;
//   - unresolved: either side's quartile spread, as a share of its median,
//     is wider than the bound, unless every B run beats every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - not worse: otherwise.
func verdict(d metricDef, a, b []float64) (string, int, int) {
	sign := 1.0 // positive differences are worse
	if d.better == "higher" {
		sign = -1
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	spread := math.Max((qa3-qa1)/ma, (qb3-qb1)/mb)
	switch {
	case pairs >= 10 && wins*10 >= pairs*9 && sign*(mb-ma) < 0 && math.Abs(mb-ma) > qa3-qa1:
		return "better", wins, pairs
	case allBetter:
		return "not worse", wins, pairs
	case spread > d.bound:
		return "unresolved", wins, pairs
	case sign*(mb-ma)/ma > d.bound:
		return "worse", wins, pairs
	}
	return "not worse", wins, pairs
}

// compareMain implements -compare A B. It exits 1 when any metric is worse,
// any run failed, or one seed produced two different result digests.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two files: the parent's output, then the change's")
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(out, "%-13s %-17s %-36s %-36s %-7s %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B wins", "verdict")
	side := func(xs []float64) string {
		q1, m, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", m, q1, q3, len(xs))
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := [2]string{w.name, d.name}
			xa, xb := a.values[k], b.values[k]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, wins, pairs := verdict(d, xa, xb)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(out, "%-13s %-17s %-36s %-36s %-7s %s\n", w.name, d.name, side(xa), side(xb),
				fmt.Sprintf("%d/%d", wins, pairs), v)
		}
	}
	fmt.Fprintf(out, "failed cells: A %d of %d, B %d of %d\n", a.failed, a.attempted, b.failed, b.attempted)
	if a.failed+b.failed > 0 {
		status = 1
	}
	var keys [][2]string
	seen := map[[2]string]map[string]bool{}
	for _, rs := range []*runSet{a, b} {
		for k, ds := range rs.digests {
			if seen[k] == nil {
				seen[k] = map[string]bool{}
				keys = append(keys, k)
			}
			for d := range ds {
				seen[k][d] = true
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i][0]+" "+keys[i][1] < keys[j][0]+" "+keys[j][1] })
	for _, k := range keys {
		state := "identical"
		if len(seen[k]) > 1 {
			state = fmt.Sprintf("%d different digests", len(seen[k]))
			status = 1
		}
		fmt.Fprintf(out, "results_digest %s seed %s: %s\n", k[0], k[1], state)
	}
	return status
}
