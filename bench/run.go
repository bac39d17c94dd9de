package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
)

// options configures one measurement.
type options struct {
	// seconds is the time box: passes start while the previous pass's
	// duration still fits in it.
	seconds time.Duration
	// trace alternates untraced and traced passes and reports per-layer
	// metrics instead of end-to-end ones.
	trace bool
	// tmp holds the fleet spools.
	tmp string
	// golden maps cell labels to their result digests for this workload
	// and seed; nil when the seed has no goldens.
	golden map[string]string
}

// report is the outcome of one measurement.
type report struct {
	values            map[string]float64
	attempted, failed int
	digest            string
	problems          []string
	// cohImpr and roiImpr are the mean OCOR improvements over the
	// workload's baseline/OCOR pairs, in percent (fidelity workloads only).
	cohImpr, roiImpr float64
}

// passResult is one pass over a workload's cells.
type passResult struct {
	// elapsed is the whole pass, checks included; it predicts the next
	// pass for the time box.
	elapsed time.Duration
	// wall is the host time of the cells themselves (for fleet-sweep, the
	// two fleet.Run calls); setup is the platform-construction part of it.
	wall, setup time.Duration
	cycles      uint64
	results     []metrics.Results
	digests     []string
	errs        []error
	// layer holds a traced pass's additive per-layer totals; cellRun its
	// fleet runner spans in seconds.
	layer   map[string]float64
	cellRun []float64
	// cal is the calibration time measured just before the pass.
	cal time.Duration
}

func newPass(n int, tr *tracer) *passResult {
	p := &passResult{
		results: make([]metrics.Results, n),
		digests: make([]string, n),
		errs:    make([]error, n),
	}
	if tr != nil {
		p.layer = map[string]float64{}
	}
	return p
}

// record stores cell i's result and the first problem found with it.
func (p *passResult) record(i int, res metrics.Results, err error) {
	p.results[i] = res
	p.errs[i] = err
	p.cycles += res.ROIFinish
	b, jerr := json.Marshal(res)
	if jerr != nil {
		p.errs[i] = jerr
		return
	}
	sum := sha256.Sum256(b)
	p.digests[i] = hex.EncodeToString(sum[:])
}

// measure runs one workload for the time box and checks every cell.
func measure(w workload, seed uint64, o options, tr *tracer) report {
	specs := w.specs(seed)
	run := func(traced bool) *passResult {
		var ptr *tracer
		var ms0 runtime.MemStats
		if traced {
			ptr = tr
			runtime.ReadMemStats(&ms0)
		}
		runtime.GC()
		cal := calibrate()
		t0 := time.Now()
		p := onePass(w, specs, o.tmp, ptr)
		p.elapsed = time.Since(t0)
		p.cal = cal
		if !traced {
			tr.span("pass", tidMain, t0, t0.Add(p.elapsed), nil)
			return p
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.layer["gc.cycles"] = float64(ms1.NumGC - ms0.NumGC)
		p.layer["gc.pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
		tr.span("traced pass", tidMain, t0, t0.Add(p.elapsed), nil)
		return p
	}

	// One untimed warm-up cell (the last, usually the cheapest) and one
	// calibration let lazy runtime set-up finish first.
	if sys, err := repro.New(specs[len(specs)-1].cfg); err == nil {
		_, _ = sys.Run() // a failing cell is reported by the passes
	}
	calibrate()

	start := time.Now()
	var untraced, traced []*passResult
	for i := 0; ; i++ {
		tracedPass := o.trace && i%2 == 1
		p := run(tracedPass)
		if tracedPass {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		done := len(untraced) > 0 && (!o.trace || len(traced) > 0)
		if done && time.Since(start)+p.elapsed > o.seconds {
			break
		}
	}

	rep := report{values: map[string]float64{}}
	ref := untraced[0]
	h := sha256.New()
	for i, s := range specs {
		fmt.Fprintf(h, "%s %s\n", s.label, ref.digests[i])
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	for _, p := range append(append([]*passResult(nil), untraced...), traced...) {
		for i, s := range specs {
			rep.attempted++
			if err := cellVerdict(s, p, ref, i, o.golden); err != nil {
				rep.failed++
				if len(rep.problems) < 10 {
					rep.problems = append(rep.problems, fmt.Sprintf("%s: %v", s.label, err))
				}
			}
		}
	}
	if w.fidelity {
		rep.cohImpr, rep.roiImpr = fidelity(specs, ref.results)
	}

	if o.trace {
		rep.values = layerValues(untraced, traced)
		return rep
	}
	pass, setup, rate, cal := untracedMedians(untraced)
	scale := calRef.Seconds() / cal
	rep.values["pass_s"] = pass * scale
	rep.values["setup_s"] = setup * scale
	rep.values["sim_cycles_per_s"] = rate / scale
	rep.values["peak_rss_mb"] = peakRSSMB()
	return rep
}

// untracedMedians returns the medians over untraced passes of the pass
// wall time, the set-up time, the simulated cycle rate (per set-up-free
// second) and the calibration time, all in measured seconds.
func untracedMedians(untraced []*passResult) (pass, setup, rate, cal float64) {
	var walls, setups, rates, cals []float64
	for _, p := range untraced {
		walls = append(walls, p.wall.Seconds())
		setups = append(setups, p.setup.Seconds())
		rates = append(rates, float64(p.cycles)/(p.wall-p.setup).Seconds())
		cals = append(cals, p.cal.Seconds())
	}
	return median(walls), median(setups), median(rates), median(cals)
}

// onePass runs every cell of the workload once; tr is nil for an untraced
// pass.
func onePass(w workload, specs []spec, tmp string, tr *tracer) *passResult {
	if w.fleet {
		return fleetPass(specs, tmp, tr)
	}
	return directPass(specs, tr)
}

// cellVerdict returns the first problem with cell i of pass p: a failed
// run or invariant, a result that differs from the reference pass (which
// also catches a traced run that changed the simulation), or a result that
// differs from the golden digest.
func cellVerdict(s spec, p, ref *passResult, i int, golden map[string]string) error {
	if p.errs[i] != nil {
		return p.errs[i]
	}
	if ref.errs[i] == nil && p.digests[i] != ref.digests[i] {
		return fmt.Errorf("result differs from the first pass")
	}
	if golden != nil {
		want, ok := golden[s.label]
		switch {
		case !ok:
			return fmt.Errorf("no golden digest")
		case want != p.digests[i]:
			return fmt.Errorf("result digest %.12s, golden %.12s", p.digests[i], want)
		}
	}
	return nil
}

// checkCell verifies a finished direct cell: the run completed, every
// thread acquired its lock once per iteration, and the platform ended
// quiescent and coherent.
func checkCell(s spec, sys *repro.System, res metrics.Results, err error) error {
	if err != nil {
		return err
	}
	if err := checkAcquisitions(s, res); err != nil {
		return err
	}
	if sys.Net.Busy() {
		return fmt.Errorf("network still busy after the run")
	}
	if err := sys.Mem.CheckCoherence(); err != nil {
		return err
	}
	if n := sys.Kernel.Pending(); n != 0 {
		return fmt.Errorf("%d lock operations still pending", n)
	}
	return nil
}

func checkAcquisitions(s spec, res metrics.Results) error {
	if want := uint64(s.cfg.Threads * s.cfg.Benchmark.Iterations); res.Acquisitions != want {
		return fmt.Errorf("%d lock acquisitions, want %d", res.Acquisitions, want)
	}
	return nil
}

// directPass runs every cell one after another, each on a fresh platform.
func directPass(specs []spec, tr *tracer) *passResult {
	p := newPass(len(specs), tr)
	for i, s := range specs {
		// Start every cell from a collected heap, so neither its time nor
		// the peak RSS depends on when the previous cell's garbage is
		// collected.
		runtime.GC()
		var a0, a1 uint64
		if tr != nil {
			a0 = heapAllocBytes()
		}
		t0 := time.Now()
		sys, err := repro.New(s.cfg)
		t1 := time.Now()
		p.setup += t1.Sub(t0)
		if err != nil {
			p.wall += t1.Sub(t0)
			p.errs[i] = err
			continue
		}
		var ct *cellTrace
		if tr != nil {
			a1 = heapAllocBytes()
			ct = instrument(sys)
		}
		t2 := time.Now()
		res, err := sys.Run()
		t3 := time.Now()
		p.wall += t3.Sub(t0)
		p.record(i, res, checkCell(s, sys, res, err))
		if tr == nil {
			continue
		}
		cell := cellLayers(sys, res, ct)
		cell["repro.new_s"] = t1.Sub(t0).Seconds()
		cell["sim.self_s"] = t3.Sub(t2).Seconds() - componentSeconds(ct)
		cell["repro.new_alloc_mb"] = float64(a1-a0) / (1 << 20)
		cell["repro.run_alloc_mb"] = float64(heapAllocBytes()-a1) / (1 << 20)
		args := map[string]any{"label": s.label}
		for k, v := range cell {
			p.layer[k] += v
			args[k] = v
		}
		tr.span("cell", tidMain, t0, t3, args)
		tr.span("repro.New", tidMain, t0, t1, nil)
		tr.span("System.Run", tidMain, t2, t3, nil)
	}
	return p
}

// componentSeconds is the host time the engine spent inside components.
func componentSeconds(ct *cellTrace) float64 {
	var d time.Duration
	for _, c := range ct.comp {
		d += c.tick + c.wake
	}
	return d.Seconds()
}

// cellLayers turns a traced cell's accumulators and the platform's own
// counters into per-layer totals.
func cellLayers(sys *repro.System, res metrics.Results, ct *cellTrace) map[string]float64 {
	net, mem, kern, cpu := ct.comp[0], ct.comp[1], ct.comp[2], ct.comp[3]
	var delivered, handoffs uint64
	for _, n := range sys.Net.Stats.DeliveredPkts {
		delivered += n
	}
	for _, st := range sys.Kernel.LockStats(sys.Engine.Now()) {
		handoffs += st.Handoffs
	}
	return map[string]float64{
		"sim.ticked_cycles":     float64(sys.Engine.TickedCycles),
		"sim.skipped_cycles":    float64(sys.Engine.SkippedCycles),
		"noc.tick_s":            net.tick.Seconds(),
		"noc.self_s":            (net.tick - ct.deliver[0] - ct.deliver[1]).Seconds(),
		"noc.nextwake_s":        net.wake.Seconds(),
		"noc.ticks":             float64(net.ticks),
		"noc.packets_delivered": float64(delivered),
		"mem.tick_s":            mem.tick.Seconds(),
		"mem.nextwake_s":        mem.wake.Seconds(),
		"mem.deliver_s":         ct.deliver[0].Seconds(),
		"mem.deliveries":        float64(ct.deliveries[0]),
		"mem.ops":               float64(sys.Mem.ScheduledOps()),
		"kernel.tick_s":         kern.tick.Seconds(),
		"kernel.nextwake_s":     kern.wake.Seconds(),
		"kernel.deliver_s":      ct.deliver[1].Seconds(),
		"kernel.deliveries":     float64(ct.deliveries[1]),
		"kernel.acquisitions":   float64(res.Acquisitions),
		"kernel.handoffs":       float64(handoffs),
		"cpu.tick_s":            cpu.tick.Seconds(),
		"cpu.nextwake_s":        cpu.wake.Seconds(),
		"cpu.ops":               float64(sys.CPU.ScheduledOps()),
	}
}

// fleetPass runs the grid through the sweep fleet over a fresh spool, then
// runs it again over the same spool, which must restore every cell from
// the journals without simulating anything.
func fleetPass(specs []spec, tmp string, tr *tracer) *passResult {
	p := newPass(len(specs), tr)
	fail := func(err error) *passResult {
		for i := range p.errs {
			p.errs[i] = err
		}
		return p
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}
	spool, err := os.MkdirTemp(tmp, "spool-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(spool)

	cells := make([]experiments.Cell, len(specs))
	labels := map[string]string{}
	for i, s := range specs {
		cells[i] = gridCell(s)
		labels[cells[i].Key()] = s.label
	}
	ro := repro.CellRunnerOptions{Warm: true, Cache: repro.DirPrefixCache(spool)}
	var cache *timedCache
	if tr != nil {
		cache = &timedCache{inner: ro.Cache, tr: tr}
		ro.Cache = cache
	}
	inner := repro.CellRunner(ro)
	// The runner is called from the fleet's single worker goroutine; Run
	// waits for that goroutine before returning, which orders these
	// writes before the reads below.
	var first time.Time
	var spans []time.Duration
	runner := func(c experiments.Cell) (metrics.Results, error) {
		t0 := time.Now()
		if first.IsZero() {
			first = t0
		}
		res, err := inner(c)
		if tr != nil {
			t1 := time.Now()
			spans = append(spans, t1.Sub(t0))
			tr.span("cell", tidFleetWorker, t0, t1, map[string]any{"label": labels[c.Key()]})
		}
		return res, err
	}

	got := make([]fleet.Result, len(cells))
	t0 := time.Now()
	st, err := fleet.Run(fleet.Config{Spool: spool, Workers: 1, Run: runner}, cells,
		func(i int, r fleet.Result) { got[i] = r })
	t1 := time.Now()
	if err != nil {
		return fail(err)
	}
	var ckptBytes int64
	files, _ := filepath.Glob(filepath.Join(spool, "prefix-*.ckpt"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			ckptBytes += fi.Size()
		}
	}
	again := make([]fleet.Result, len(cells))
	resume := repro.CellRunner(repro.CellRunnerOptions{Warm: true, Cache: repro.DirPrefixCache(spool)})
	st2, err := fleet.Run(fleet.Config{Spool: spool, Workers: 1, Run: resume}, cells,
		func(i int, r fleet.Result) { again[i] = r })
	t2 := time.Now()
	if err != nil {
		return fail(err)
	}
	if st2.Restored != st2.Unique || st2.Leases != 0 {
		return fail(fmt.Errorf("resume restored %d of %d cells with %d leases", st2.Restored, st2.Unique, st2.Leases))
	}

	p.wall = t2.Sub(t0)
	if !first.IsZero() {
		p.setup = first.Sub(t0)
	}
	for i, s := range specs {
		var err error
		switch {
		case got[i].Err != "":
			err = fmt.Errorf("poisoned: %s", got[i].Err)
		case again[i] != got[i]:
			err = fmt.Errorf("resumed result differs from the first run")
		default:
			err = checkAcquisitions(s, got[i].Results)
		}
		p.record(i, got[i].Results, err)
	}
	if tr == nil {
		return p
	}
	tr.span("fleet.Run", tidMain, t0, t1, nil)
	tr.span("fleet.Run resume", tidMain, t1, t2, nil)
	var run time.Duration
	for _, d := range spans {
		run += d
		p.cellRun = append(p.cellRun, d.Seconds())
	}
	cs := cache.stats()
	for k, v := range map[string]float64{
		"fleet.overhead_s":   (t1.Sub(t0) - run).Seconds(),
		"fleet.cell_run_s":   run.Seconds(),
		"fleet.leases":       float64(st.Leases),
		"fleet.unique":       float64(st.Unique),
		"fleet.resume_s":     t2.Sub(t1).Seconds(),
		"fleet.restored":     float64(st2.Restored),
		"checkpoint.store_s": cs.store.Seconds(),
		"checkpoint.stores":  float64(cs.stores),
		"checkpoint.load_s":  cs.load.Seconds(),
		"checkpoint.loads":   float64(cs.loads),
		"checkpoint.bytes":   float64(ckptBytes),
	} {
		p.layer[k] = v
	}
	return p
}

// selfKeys are the per-layer self times. What they leave of a traced
// pass's wall time (the cells' spans, as in host.pass_wall_s) is time no
// layer accounts for, reported as trace.residual_frac.
var selfKeys = []string{
	"repro.new_s", "sim.self_s", "noc.self_s", "noc.nextwake_s",
	"mem.tick_s", "mem.nextwake_s", "mem.deliver_s",
	"kernel.tick_s", "kernel.nextwake_s", "kernel.deliver_s",
	"cpu.tick_s", "cpu.nextwake_s",
	"fleet.overhead_s", "fleet.cell_run_s", "fleet.resume_s",
}

// layerValues averages the traced passes' per-layer totals into per-pass
// values and derives the ratios.
func layerValues(untraced, traced []*passResult) map[string]float64 {
	v := map[string]float64{}
	var tracedWalls, cellRun []float64
	var wall float64
	for _, p := range traced {
		for k, x := range p.layer {
			v[k] += x / float64(len(traced))
		}
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		wall += p.wall.Seconds() / float64(len(traced))
		cellRun = append(cellRun, p.cellRun...)
	}
	v["host.pass_wall_s"], v["host.setup_wall_s"], _, v["host.cal_s"] = untracedMedians(untraced)
	if total := v["sim.ticked_cycles"] + v["sim.skipped_cycles"]; total > 0 {
		v["sim.skip_frac"] = v["sim.skipped_cycles"] / total
	}
	if v["noc.ticks"] > 0 {
		v["noc.ns_per_tick"] = v["noc.self_s"] / v["noc.ticks"] * 1e9
	}
	v["fleet.cell_p50_s"] = percentile(cellRun, 50)
	v["fleet.cell_p90_s"] = percentile(cellRun, 90)
	v["trace.wall_s"] = median(tracedWalls)
	v["trace.overhead_frac"] = median(tracedWalls)/v["host.pass_wall_s"] - 1
	var self float64
	for _, k := range selfKeys {
		self += v[k]
	}
	v["trace.residual_frac"] = math.Abs(wall-self) / wall
	return v
}

// fidelity returns the mean COH and ROI improvements of OCOR over the
// baseline across the workload's benchmark pairs, in percent, computed
// with the experiments package's Table 3 summary.
func fidelity(specs []spec, res []metrics.Results) (coh, roi float64) {
	var rs []experiments.BenchResult
	for i := 0; i+1 < len(specs); i += 2 {
		rs = append(rs, experiments.BenchResult{Profile: specs[i].cfg.Benchmark, Base: res[i], OCOR: res[i+1]})
	}
	t := experiments.Table3(rs)
	return 100 * t.AvgCOH["Overall"], 100 * t.AvgROI["Overall"]
}

// heapAllocBytes is the process's cumulative heap allocation. It does not
// stop the world, unlike runtime.ReadMemStats.
func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
