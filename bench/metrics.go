package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test holds the two together); bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the host-side costs a user of the simulator sees, measured
// with tracing off. Times are in calibrated seconds (calibrate.go), which
// keeps the host's drift out of them; peak RSS needs no calibration.
var endToEnd = []metricDef{
	{"pass_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// perLayer are the traced run's per-layer numbers, named after the repo's
// modules. Times and counts are per traced pass.
var perLayer = []metricDef{
	{"sim.self_s", "s", "lower", 0},
	{"sim.ticked_cycles", "count", "lower", 0},
	{"sim.skipped_cycles", "count", "higher", 0},
	{"sim.skip_frac", "ratio", "higher", 0},
	{"noc.tick_s", "s", "lower", 0},
	{"noc.self_s", "s", "lower", 0},
	{"noc.nextwake_s", "s", "lower", 0},
	{"noc.ticks", "count", "lower", 0},
	{"noc.ns_per_tick", "ns", "lower", 0},
	{"noc.packets_delivered", "count", "lower", 0},
	{"mem.tick_s", "s", "lower", 0},
	{"mem.nextwake_s", "s", "lower", 0},
	{"mem.deliver_s", "s", "lower", 0},
	{"mem.deliveries", "count", "lower", 0},
	{"mem.ops", "count", "lower", 0},
	{"kernel.tick_s", "s", "lower", 0},
	{"kernel.nextwake_s", "s", "lower", 0},
	{"kernel.deliver_s", "s", "lower", 0},
	{"kernel.deliveries", "count", "lower", 0},
	{"kernel.acquisitions", "count", "higher", 0},
	{"kernel.handoffs", "count", "lower", 0},
	{"cpu.tick_s", "s", "lower", 0},
	{"cpu.nextwake_s", "s", "lower", 0},
	{"cpu.ops", "count", "lower", 0},
	{"repro.new_s", "s", "lower", 0},
	{"repro.new_alloc_mb", "MB", "lower", 0},
	{"repro.run_alloc_mb", "MB", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.pause_s", "s", "lower", 0},
	{"checkpoint.store_s", "s", "lower", 0},
	{"checkpoint.stores", "count", "lower", 0},
	{"checkpoint.load_s", "s", "lower", 0},
	{"checkpoint.loads", "count", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"fleet.overhead_s", "s", "lower", 0},
	{"fleet.cell_run_s", "s", "lower", 0},
	{"fleet.cell_p50_s", "s", "lower", 0},
	{"fleet.cell_p90_s", "s", "lower", 0},
	{"fleet.leases", "count", "lower", 0},
	{"fleet.unique", "count", "lower", 0},
	{"fleet.resume_s", "s", "lower", 0},
	{"fleet.restored", "count", "higher", 0},
	{"host.pass_wall_s", "s", "lower", 0},
	{"host.setup_wall_s", "s", "lower", 0},
	{"host.cal_s", "s", "lower", 0},
	{"trace.wall_s", "s", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.residual_frac", "ratio", "lower", 0},
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method,
// which extrapolates for very small samples), so a spread computed here
// matches one computed from the printed values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
