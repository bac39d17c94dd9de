package repro

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// giantSmoke runs p with 64 threads on a w x w platform with the watchdog
// armed, checks that the run finishes quiescent and coherent (Run returns
// a *sim.WatchdogError if the watchdog fires), and requires a second run
// on the busyTickEngine oracle — the conservative tick-every-busy-cycle
// discipline — to produce the same results: idle-window fast-forward is
// a pure scheduling optimisation on a giant mesh too.
func giantSmoke(t *testing.T, p workload.Profile, w int) {
	t.Helper()
	cfg := Config{
		Benchmark:  p,
		Threads:    64,
		MeshWidth:  w,
		MeshHeight: w,
		OCOR:       true,
		Seed:       11,
		Watchdog:   &sim.WatchdogConfig{},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%dx%d run failed: %v", w, w, err)
	}
	if res.ROIFinish == 0 {
		t.Fatal("zero ROI")
	}
	if want := uint64(64 * p.Iterations); res.Acquisitions != want {
		t.Fatalf("acquisitions = %d, want %d", res.Acquisitions, want)
	}
	if sys.Net.Busy() {
		t.Fatal("network still busy after completion")
	}
	if err := sys.Mem.CheckCoherence(); err != nil {
		t.Fatal(err)
	}

	busy, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	busyTickEngine(t, busy)
	busyRes, err := busy.Run()
	if err != nil {
		t.Fatalf("conservative %dx%d run failed: %v", w, w, err)
	}
	if busyRes != res {
		t.Fatalf("%dx%d fast-forward diverged from conservative:\n%+v\n%+v", w, w, res, busyRes)
	}
}

// TestGiantMeshSmoke runs a short deterministic workload on a 32x32
// platform — 1024 nodes, far past every structure the hot path indexes by
// node id. It is the giant-mesh counterpart of TestRunCompletes.
func TestGiantMeshSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 platform smoke skipped in -short")
	}
	p := smallProfile()
	p.Iterations = 3
	giantSmoke(t, p, 32)
}

// TestGiantMeshSmoke64 pushes the smoke one size up: 64 threads on a
// 64x64 mesh — 4096 nodes, of which 98% never host a thread, exactly the
// regime the O(active) ticking targets.
func TestGiantMeshSmoke64(t *testing.T) {
	if testing.Short() {
		t.Skip("64x64 platform smoke skipped in -short")
	}
	p := smallProfile()
	p.Iterations = 2
	giantSmoke(t, p, 64)
}

// TestGiantMeshFastForwardPinned pins the engine's schedule on a giant
// mesh: 16 threads on 64x64 tick 11,474 cycles and skip 4,920. The
// identity tests compare fast-forward with ticking every busy cycle, and
// both agree whenever the network only wakes early, so a change that
// ticks extra cycles would pass them; it moves these counts.
func TestGiantMeshFastForwardPinned(t *testing.T) {
	p := smallProfile()
	p.Iterations = 2
	sys, err := New(Config{Benchmark: p, Threads: 16, MeshWidth: 64, MeshHeight: 64, OCOR: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if e := sys.Engine; e.TickedCycles != 11474 || e.SkippedCycles != 4920 {
		t.Fatalf("ticked %d and skipped %d cycles, want 11474 and 4920", e.TickedCycles, e.SkippedCycles)
	}
}

// TestGiantMeshBuildsUsedRouters checks that a router builds its input
// buffers only when traffic reaches it: New for 16 threads on a 64x64 mesh
// builds none, and after a run the built routers are exactly those that
// moved a flit.
func TestGiantMeshBuildsUsedRouters(t *testing.T) {
	p := smallProfile()
	p.Iterations = 2
	sys, err := New(Config{Benchmark: p, Threads: 16, MeshWidth: 64, MeshHeight: 64, OCOR: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sys.Net.Routers {
		if r.BuffersBuilt() {
			t.Fatalf("New built router %d's buffers", i)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	built := 0
	for i, r := range sys.Net.Routers {
		if used := r.Stats.FlitsTraversed > 0; used != r.BuffersBuilt() {
			t.Fatalf("router %d: moved flits %v, built %v", i, used, r.BuffersBuilt())
		}
		if r.BuffersBuilt() {
			built++
		}
	}
	if built == 0 || built == len(sys.Net.Routers) {
		t.Fatalf("%d of %d routers built their buffers", built, len(sys.Net.Routers))
	}
	t.Logf("%d of %d routers built their buffers", built, len(sys.Net.Routers))
}

// BenchmarkNewGiant measures platform construction in the giant-sparse
// regime: 16 threads on a 64x64 mesh, so 4080 of the 4096 nodes never run
// a thread. CI's bench-smoke gate holds its B/op to
// .github/new-bytes-threshold: construction must stay proportional to the
// threads (their L1s, lock clients and programs) plus the NoC's per-node
// routers, links and NIs, and not grow back structures that only a
// thread or a router's traffic would use, such as L1s or input buffers.
func BenchmarkNewGiant(b *testing.B) {
	p, err := Benchmark("imag")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Benchmark: p, Threads: 16, MeshWidth: 64, MeshHeight: 64, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
