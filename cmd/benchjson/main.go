// Command benchjson measures the wall-clock and allocation cost of
// regenerating the paper's headline experiments (Fig. 2, Fig. 10, Fig. 11)
// and writes a machine-readable JSON performance record. CI and `make
// bench-json` use it to track simulator performance across commits; each
// figure is regenerated from scratch, so a record reflects the full cost of
// that experiment rather than a memoised suite.
//
// Besides the per-figure records, the report carries a network_tick block
// — the sequential per-cycle cost of the saturated NoC tick loop per mesh
// size, optionally annotated with -tickbase reference points from an
// earlier commit — a mesh_scaling block — the sparse-traffic cost of
// eight deliveries on meshes up to 64x64 under idle-window fast-forward,
// optionally annotated with -sparsebase reference points
// measured against the predecessor commit's fused tick — and an intra-run
// scaling block: the same Fig. 11
// regeneration timed once per -scaleworkers value, so the record shows
// how the sharded tick executor behaves on this host (together with the
// host's CPU count, without which a scaling curve is meaningless; when
// worker counts exceed the CPUs, the report says so in a "caveat" field).
//
// Usage:
//
//	benchjson                       # writes BENCH_6.json
//	benchjson -o perf.json -scale 0.5 -workers 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro" // installs the platform cell runner into the experiments package

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/sim"
)

// record is one benchmark measurement in the JSON output.
type record struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	WallSeconds float64 `json:"wall_seconds_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// scalingPoint is one cell of the intra-run scaling block: the wall-clock
// cost of one full Fig. 11 regeneration at a given tick worker count.
type scalingPoint struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
}

// tickRecord is one cell of the network_tick block: the sequential
// (workers=1) per-cycle cost of the saturated-mesh NoC tick loop, the
// same workload BenchmarkNetworkTick measures. BaselineNs, when the
// -tickbase flag supplies it, is a reference ns/op measured on the same
// host from an earlier commit, so the record documents the regression or
// win it was committed to demonstrate.
type tickRecord struct {
	Mesh        string  `json:"mesh"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BaselineNs  float64 `json:"baseline_ns_per_op,omitempty"`
	SpeedupVs   float64 `json:"speedup_vs_baseline,omitempty"`
}

// meshScalingRecord is one cell of the mesh_scaling block: the
// low-utilization sparse-traffic cost of advancing the network by eight
// deliveries (the BenchmarkNetworkTickSparse workload — one single-flit
// lock-token flow ping-ponging across three quarters of an otherwise idle
// mesh). FastForwardNs is the engine-driven path (idle-window
// fast-forward plus hierarchical active sets). BaselineNs, when
// -sparsebase supplies it, is the same workload measured on the same host
// against the predecessor commit's fused tick, so the speedup column
// documents the O(active) win directly.
type meshScalingRecord struct {
	Mesh          string  `json:"mesh"`
	Iterations    int     `json:"iterations"`
	FastForwardNs float64 `json:"fast_forward_ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BaselineNs    float64 `json:"baseline_ns_per_op,omitempty"`
	SpeedupVs     float64 `json:"speedup_vs_baseline,omitempty"`
}

// report is the top-level JSON document.
type report struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CPUs      int     `json:"cpus"`
	Threads   int     `json:"threads"`
	Scale     float64 `json:"scale"`
	Quick     bool    `json:"quick"`
	Workers   int     `json:"workers"`
	// Caveat is set when any measured worker count exceeds the host's
	// CPUs: the scaling numbers then reflect time-slicing, not
	// parallelism, and must not be compared across hosts.
	Caveat      string                `json:"caveat,omitempty"`
	Records     []record              `json:"benchmarks"`
	Tick        []tickRecord          `json:"network_tick,omitempty"`
	MeshScaling []meshScalingRecord   `json:"mesh_scaling,omitempty"`
	Scaling     []scalingPoint        `json:"tick_scaling,omitempty"`
	Arena       *arenaBlock           `json:"lock_arena,omitempty"`
	Checkpoint  *checkpointSweepBlock `json:"checkpoint_sweep,omitempty"`
}

// arenaBlock is the lock-protocol tournament record: a small deterministic
// arena configuration (the leaderboard bytes are identical across hosts
// and worker counts) plus the wall-clock cost of producing it here.
type arenaBlock struct {
	WallSeconds float64                 `json:"wall_seconds"`
	Report      experiments.ArenaReport `json:"report"`
}

// checkpointSweepBlock records the warm-start sweep economics: the same
// priority-level grid timed the pre-checkpoint way (every cell simulated
// from cycle zero, including the identical baseline cells) and through
// the deduplicating warm-start grid, plus the cost of the checkpoint
// primitive itself on a mid-run platform. WarmupFraction is the measured
// share of a run the shared pre-first-lock prefix covers — the honest
// ceiling on what prefix forking alone can save; the rest of the speedup
// is deduplication of identical cells.
type checkpointSweepBlock struct {
	GridCells           int     `json:"grid_cells"`
	UniqueCells         int     `json:"unique_cells"`
	PrefixesBuilt       int     `json:"prefixes_built"`
	PrefixCyclesSkipped uint64  `json:"prefix_cycles_skipped"`
	WarmupFraction      float64 `json:"measured_warmup_fraction"`
	ColdCellsPerSec     float64 `json:"cold_cells_per_sec"`
	WarmCellsPerSec     float64 `json:"warm_cells_per_sec"`
	Speedup             float64 `json:"speedup_warm_vs_cold"`
	SnapshotBytes       int     `json:"snapshot_bytes"`
	SnapshotNs          float64 `json:"snapshot_ns_per_op"`
	RestoreNs           float64 `json:"restore_ns_per_op"`
	RoundTripAllocs     int64   `json:"round_trip_allocs_per_op"`
}

func main() {
	var (
		out          = flag.String("o", "BENCH_6.json", "output JSON file")
		threads      = flag.Int("threads", 64, "thread/core count")
		scale        = flag.Float64("scale", 0.25, "iteration scale factor")
		seed         = flag.Uint64("seed", 1, "simulation seed")
		quick        = flag.Bool("quick", true, "use the representative benchmark subset")
		workers      = flag.Int("workers", 1, "intra-simulation tick worker count for the per-figure benchmarks")
		scaleWorkers = flag.String("scaleworkers", "1,2,4", "comma-separated worker counts for the tick_scaling block (empty disables it)")
		tickMeshes   = flag.String("tickmeshes", "8,16,32,64", "comma-separated square mesh widths for the network_tick block (empty disables it)")
		tickBase     = flag.String("tickbase", "", "comma-separated mesh=ns_per_op reference points recorded into the network_tick block (e.g. 8x8=30128,16x16=144082)")
		sparseMeshes = flag.String("sparsemeshes", "8,16,32,64", "comma-separated square mesh widths for the mesh_scaling block (empty disables it)")
		sparseBase   = flag.String("sparsebase", "", "comma-separated mesh=ns_per_op reference points for the mesh_scaling block, measured against the predecessor commit's fused tick")
		arena        = flag.Bool("arena", true, "include the lock_arena block (small deterministic protocol tournament)")
		ckptLevels   = flag.String("checkpointlevels", "2,4,8,16,32", "comma-separated priority-level counts for the checkpoint_sweep block (empty disables it)")
	)
	flag.Parse()

	// The benchmarks must run against the real platform, not a test fake.
	_ = repro.Catalog()

	if err := (&repro.Config{Threads: *threads, Workers: *workers}).Validate(); err != nil {
		fatal(err)
	}
	if c := par.WorkerCaveat(*workers); c != "" {
		fmt.Fprintln(os.Stderr, "benchjson: warning:", c)
	}
	opt := experiments.Options{Threads: *threads, Seed: *seed, Scale: *scale, Quick: *quick, Workers: *workers}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"Fig2", func() error {
			rs, err := experiments.RunSuite(opt, nil)
			if err != nil {
				return err
			}
			experiments.Fig2(rs)
			return nil
		}},
		{"Fig10", func() error {
			_, err := experiments.Fig10(opt)
			return err
		}},
		{"Fig11", func() error {
			rs, err := experiments.RunSuite(opt, nil)
			if err != nil {
				return err
			}
			experiments.Fig11(rs)
			return nil
		}},
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Threads:   *threads,
		Scale:     *scale,
		Quick:     *quick,
		Workers:   *workers,
	}
	// Measure the tick hot loop before the figure suite touches the heap:
	// the figure runs allocate tens of MB per op, and the garbage and
	// background GC work they leave behind measurably inflate the
	// microbenchmark on a single-CPU host.
	if recs, err := measureTicks(*tickMeshes, *tickBase); err != nil {
		fatal(err)
	} else {
		rep.Tick = recs
	}
	if recs, err := measureMeshScaling(*sparseMeshes, *sparseBase); err != nil {
		fatal(err)
	} else {
		rep.MeshScaling = recs
	}

	for _, c := range cases {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.fn(); err != nil {
					runErr = err
					b.Fatal(err)
				}
			}
		})
		if runErr != nil {
			fatal(fmt.Errorf("%s: %w", c.name, runErr))
		}
		rec := record{
			Name:        c.name,
			Iterations:  r.N,
			WallSeconds: r.T.Seconds() / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-6s %8.2fs/op  %12d allocs/op  %14d B/op\n",
			rec.Name, rec.WallSeconds, rec.AllocsPerOp, rec.BytesPerOp)
		rep.Records = append(rep.Records, rec)
	}

	if *arena {
		// A small fixed configuration keeps the block cheap and its
		// leaderboard bytes comparable across records: 16 threads, two
		// benchmarks, every protocol, OCOR on and off.
		start := time.Now()
		ar, err := experiments.RunArena(experiments.ArenaOptions{
			Threads: 16, Seed: *seed, Scale: 0.1,
			Benches: []string{"body", "can"}, Workers: *workers,
		}, nil)
		if err != nil {
			fatal(fmt.Errorf("lock_arena: %w", err))
		}
		rep.Arena = &arenaBlock{WallSeconds: time.Since(start).Seconds(), Report: ar}
		fmt.Fprintf(os.Stderr, "benchjson: arena  %8.2fs  (%d combinations, winner %s ocor=%v)\n",
			rep.Arena.WallSeconds, len(ar.Leaderboard), ar.Leaderboard[0].Protocol, ar.Leaderboard[0].OCOR)
	}

	if blk, err := measureCheckpointSweep(*threads, *scale, *seed, *ckptLevels); err != nil {
		fatal(fmt.Errorf("checkpoint_sweep: %w", err))
	} else if blk != nil {
		rep.Checkpoint = blk
		fmt.Fprintf(os.Stderr, "benchjson: ckpt   %8.2f cold cells/s  %8.2f warm cells/s  (%.2fx, warmup fraction %.4f)\n",
			blk.ColdCellsPerSec, blk.WarmCellsPerSec, blk.Speedup, blk.WarmupFraction)
	}

	if pts, err := measureScaling(opt, *scaleWorkers); err != nil {
		fatal(err)
	} else {
		rep.Scaling = pts
		rep.Caveat = par.WorkerCaveat(*workers)
		for _, pt := range pts {
			if c := par.WorkerCaveat(pt.Workers); c != "" && rep.Caveat == "" {
				rep.Caveat = "tick_scaling: " + c
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", *out)
}

// measureScaling times one full Fig. 11 regeneration per requested tick
// worker count. A single timed run per point keeps the block cheap; the
// figure-level records above carry the statistically settled numbers, this
// block exists to show the shape of the intra-run scaling curve on the
// host that produced the record. Every point runs the suite one
// simulation at a time: left at its default, Jobs would shrink with the
// worker count (the shared core budget), and on a multi-core host the
// block would time that budget split instead of the tick executor.
func measureScaling(opt experiments.Options, spec string) ([]scalingPoint, error) {
	var pts []scalingPoint
	var base float64
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		w, err := strconv.Atoi(field)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -scaleworkers entry %q", field)
		}
		if c := par.WorkerCaveat(w); c != "" {
			fmt.Fprintln(os.Stderr, "benchjson: warning:", c)
		}
		o := opt
		o.Workers = w
		o.Jobs = 1
		start := time.Now()
		rs, err := experiments.RunSuite(o, nil)
		if err != nil {
			return nil, fmt.Errorf("scaling workers=%d: %w", w, err)
		}
		experiments.Fig11(rs)
		pt := scalingPoint{Workers: w, WallSeconds: time.Since(start).Seconds()}
		if base == 0 {
			base = pt.WallSeconds
		}
		pt.SpeedupVs1 = base / pt.WallSeconds
		fmt.Fprintf(os.Stderr, "benchjson: scaling workers=%d %8.2fs  (%.2fx vs first point)\n",
			pt.Workers, pt.WallSeconds, pt.SpeedupVs1)
		pts = append(pts, pt)
	}
	return pts, nil
}

// measureTicks benchmarks the sequential saturated-mesh tick loop — the
// in-process equivalent of BenchmarkNetworkTick/mesh=NxN/workers=1 — for
// each requested square mesh width, attaching reference ns/op points
// from the base spec ("mesh=ns" pairs) when given.
func measureTicks(meshSpec, baseSpec string) ([]tickRecord, error) {
	base, err := parseBaseSpec("-tickbase", baseSpec)
	if err != nil {
		return nil, err
	}
	var recs []tickRecord
	for _, field := range strings.Split(meshSpec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		mesh, err := strconv.Atoi(field)
		if err != nil || mesh < 2 {
			return nil, fmt.Errorf("bad -tickmeshes entry %q", field)
		}
		cfg := noc.DefaultConfig()
		cfg.Width, cfg.Height = mesh, mesh
		cfg.Priority = true
		n := noc.MustNetwork(cfg)
		nodes := cfg.Nodes()
		rng := sim.NewRNG(42)
		resend := func(now uint64, pkt *noc.Packet) {
			// Keep the load constant: every delivery immediately re-injects
			// a packet from a rotating source.
			src := pkt.Dst
			dst := rng.Intn(nodes)
			if dst == src {
				dst = (src + 1) % nodes
			}
			n.Send(now, n.NewPacket(src, dst, noc.ClassData, rng.Intn(noc.NumVNets), nil))
			n.FreePacket(pkt)
		}
		for j := 0; j < nodes; j++ {
			n.SetSink(j, resend)
		}
		for s := 0; s < nodes; s++ {
			for k := 0; k < 4; k++ {
				if d := rng.Intn(nodes); d != s {
					n.Send(0, n.NewPacket(s, d, noc.ClassData, rng.Intn(noc.NumVNets), nil))
				}
			}
		}
		var now uint64
		for ; now < 500; now++ {
			n.Tick(now)
		}
		runtime.GC()
		// Minimum of several timed runs: scheduler noise on a shared (or
		// single-CPU) host only ever inflates a run, so the minimum is the
		// cleanest estimate of the loop's cost and matches how the -tickbase
		// reference points are meant to be measured.
		var best testing.BenchmarkResult
		for rep := 0; rep < 5; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n.Tick(now)
					now++
				}
			})
			if rep == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		rec := tickRecord{
			Mesh:        fmt.Sprintf("%dx%d", mesh, mesh),
			Workers:     1,
			Iterations:  best.N,
			NsPerOp:     float64(best.T.Nanoseconds()) / float64(best.N),
			AllocsPerOp: best.AllocsPerOp(),
		}
		if ns, ok := base[rec.Mesh]; ok {
			rec.BaselineNs = ns
			rec.SpeedupVs = ns / rec.NsPerOp
		}
		fmt.Fprintf(os.Stderr, "benchjson: tick %-7s %10.0f ns/op  %3d allocs/op", rec.Mesh, rec.NsPerOp, rec.AllocsPerOp)
		if rec.SpeedupVs != 0 {
			fmt.Fprintf(os.Stderr, "  (%.2fx vs baseline %0.f)", rec.SpeedupVs, rec.BaselineNs)
		}
		fmt.Fprintln(os.Stderr)
		recs = append(recs, rec)
	}
	return recs, nil
}

// parseBaseSpec parses a comma-separated "mesh=ns_per_op" reference-point
// spec (shared by -tickbase and -sparsebase).
func parseBaseSpec(flagName, spec string) (map[string]float64, error) {
	base := map[string]float64{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		mesh, nsText, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("bad %s entry %q", flagName, field)
		}
		ns, err := strconv.ParseFloat(nsText, 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, field)
		}
		base[mesh] = ns
	}
	return base, nil
}

// sparseRelease / sparseGen mirror the BenchmarkNetworkTickSparse fixture
// in internal/noc (test code, so not importable here): a FIFO ring of
// pending ping-pong releases exposed as an event-driven component, so the
// engine can fast-forward across think-time windows. All pushes share one
// constant think time, so release times arrive nondecreasing and the ring
// head is always the earliest entry.
type sparseRelease struct {
	at       uint64
	src, dst int
}

type sparseGen struct {
	net        *noc.Network
	waker      sim.Waker
	ring       []sparseRelease
	head, tail int
}

func (g *sparseGen) push(at uint64, src, dst int) {
	g.ring[g.tail] = sparseRelease{at: at, src: src, dst: dst}
	g.tail = (g.tail + 1) % len(g.ring)
	if g.waker != nil {
		g.waker.Wake(at)
	}
}

func (g *sparseGen) Tick(now uint64) {
	for g.head != g.tail && g.ring[g.head].at <= now {
		ev := g.ring[g.head]
		g.head = (g.head + 1) % len(g.ring)
		g.net.Send(now, g.net.NewPacket(ev.src, ev.dst, noc.ClassCtrl, noc.VNetRequest, nil))
	}
}

func (g *sparseGen) NextWake(now uint64) uint64 {
	if g.head == g.tail {
		return sim.Never
	}
	if at := g.ring[g.head].at; at > now {
		return at
	}
	return now + 1
}

func (g *sparseGen) SetWaker(w sim.Waker) { g.waker = w }

// measureSparse times the sparse-traffic fixture on one mesh: a single
// single-flit lock-token flow ping-ponging across three quarters of a
// LinkLatency-8 mesh with 200 think cycles between a delivery and the
// reverse send. One op advances the run by eight deliveries. Returns the
// minimum of several timed runs (as measureTicks; noise only inflates).
func measureSparse(mesh int) testing.BenchmarkResult {
	const think = 200
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = mesh, mesh
	cfg.Priority = true
	cfg.LinkLatency = 8
	n := noc.MustNetwork(cfg)
	delivered := 0
	g := &sparseGen{net: n, ring: make([]sparseRelease, 2)}
	resend := func(now uint64, pkt *noc.Packet) {
		delivered++
		src, dst := pkt.Dst, pkt.Src
		n.FreePacket(pkt)
		g.push(now+think, src, dst)
	}
	for j := 0; j < cfg.Nodes(); j++ {
		n.SetSink(j, resend)
	}
	e := sim.NewEngine()
	e.Register(n)
	e.Register(g)
	rng := sim.NewRNG(42)
	span := 3 * mesh / 4
	x, y := rng.Intn(mesh-span), rng.Intn(mesh-span)
	g.push(0, cfg.Node(x, y), cfg.Node(x+span, y+span))
	e.MaxCycles = 1 << 62
	e.RunUntil(func() bool { return delivered >= 40 })
	runtime.GC()
	var best testing.BenchmarkResult
	for rep := 0; rep < 3; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				target := delivered + 8
				e.RunUntil(func() bool { return delivered >= target })
			}
		})
		if rep == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// measureMeshScaling builds the mesh_scaling block: for each requested
// square mesh width, the sparse workload on the engine's fast-forward
// path, plus optional -sparsebase reference points measured against the
// predecessor commit's fused tick.
func measureMeshScaling(meshSpec, baseSpec string) ([]meshScalingRecord, error) {
	base, err := parseBaseSpec("-sparsebase", baseSpec)
	if err != nil {
		return nil, err
	}
	var recs []meshScalingRecord
	for _, field := range strings.Split(meshSpec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		mesh, err := strconv.Atoi(field)
		if err != nil || mesh < 4 {
			return nil, fmt.Errorf("bad -sparsemeshes entry %q", field)
		}
		ff := measureSparse(mesh)
		rec := meshScalingRecord{
			Mesh:          fmt.Sprintf("%dx%d", mesh, mesh),
			Iterations:    ff.N,
			FastForwardNs: float64(ff.T.Nanoseconds()) / float64(ff.N),
			AllocsPerOp:   ff.AllocsPerOp(),
		}
		if ns, ok := base[rec.Mesh]; ok {
			rec.BaselineNs = ns
			rec.SpeedupVs = ns / rec.FastForwardNs
		}
		fmt.Fprintf(os.Stderr, "benchjson: sparse %-7s %10.0f ns/op ff  %3d allocs/op",
			rec.Mesh, rec.FastForwardNs, rec.AllocsPerOp)
		if rec.SpeedupVs != 0 {
			fmt.Fprintf(os.Stderr, "  (%.2fx vs baseline %.0f)", rec.SpeedupVs, rec.BaselineNs)
		}
		fmt.Fprintln(os.Stderr)
		recs = append(recs, rec)
	}
	return recs, nil
}

// measureCheckpointSweep times the body priority-level sweep grid two
// ways: the pre-checkpoint path (every cell simulated from cycle zero,
// including the identical baseline cells — what cmd/sweep did before the
// warm-start grid) and through experiments.RunGrid with warm-start
// forking. Both run with Jobs=1 so the ratio reflects simulation work
// avoided, not parallelism. It then measures the checkpoint primitive on
// a mid-run platform: snapshot size, snapshot and restore wall cost, and
// combined round-trip allocations (the number CI's bench-smoke gate
// bounds via BenchmarkCheckpointRoundTrip).
func measureCheckpointSweep(threads int, scale float64, seed uint64, levelSpec string) (*checkpointSweepBlock, error) {
	if levelSpec == "" {
		return nil, nil
	}
	var levels []int
	for _, f := range strings.Split(levelSpec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-checkpointlevels: bad list %q: %v", levelSpec, err)
		}
		levels = append(levels, v)
	}
	p, err := repro.Benchmark("body")
	if err != nil {
		return nil, err
	}
	p = p.Scale(scale)
	var cells []experiments.Cell
	for _, lv := range levels {
		base := experiments.Cell{Profile: p, Threads: threads, Seed: seed}
		ocor := base
		ocor.OCOR = true
		ocor.Levels = lv
		cells = append(cells, base, ocor)
	}

	coldStart := time.Now()
	for _, c := range cells {
		cfg := repro.Config{Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR, Seed: c.Seed}
		if c.Levels > 0 {
			cfg.PriorityLevels = c.Levels
		}
		sys, err := repro.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := sys.Run(); err != nil {
			return nil, err
		}
	}
	coldSec := time.Since(coldStart).Seconds()

	warmStart := time.Now()
	results, stats, err := experiments.RunGrid(cells, experiments.GridOptions{Jobs: 1, Warm: true}, nil)
	if err != nil {
		return nil, err
	}
	warmSec := time.Since(warmStart).Seconds()

	blk := &checkpointSweepBlock{
		GridCells:           len(cells),
		UniqueCells:         stats.Unique,
		PrefixesBuilt:       stats.PrefixesBuilt,
		PrefixCyclesSkipped: stats.PrefixCycles,
		ColdCellsPerSec:     float64(len(cells)) / coldSec,
		WarmCellsPerSec:     float64(len(cells)) / warmSec,
	}
	blk.Speedup = blk.WarmCellsPerSec / blk.ColdCellsPerSec
	if stats.Forked > 0 && results[0].Results.ROIFinish > 0 {
		perRun := stats.PrefixCycles / uint64(stats.Forked)
		blk.WarmupFraction = float64(perRun) / float64(results[0].Results.ROIFinish)
	}

	cfg := repro.Config{Benchmark: p, Threads: threads, OCOR: true, Seed: seed}
	src, err := repro.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := src.RunTo(results[1].Results.ROIFinish / 2); err != nil {
		return nil, err
	}
	snap, err := src.Snapshot()
	if err != nil {
		return nil, err
	}
	blk.SnapshotBytes = snap.Size()
	var benchErr error
	sres := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := src.Snapshot(); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	rres := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repro.Restore(cfg, snap); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	blk.SnapshotNs = float64(sres.T.Nanoseconds()) / float64(sres.N)
	blk.RestoreNs = float64(rres.T.Nanoseconds()) / float64(rres.N)
	blk.RoundTripAllocs = sres.AllocsPerOp() + rres.AllocsPerOp()
	return blk, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
