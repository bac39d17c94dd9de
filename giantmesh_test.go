package repro

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// TestGiantMeshSmoke runs a short deterministic workload on a 32x32
// platform — 1024 nodes, far past every structure the hot path indexes by
// node id — with the watchdog armed and the fused parallel tick forced
// (64 threads never reach the default gate). It is the giant-mesh
// counterpart of TestRunCompletes: the run must finish, the watchdog must
// stay quiet (Run returns a *sim.WatchdogError if it fires), and the
// platform must end quiescent and coherent.
func TestGiantMeshSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 platform smoke skipped in -short")
	}
	p := smallProfile()
	p.Iterations = 3
	forced := noc.DefaultConfig()
	forced.ParThreshold = -1
	sys, err := New(Config{
		Benchmark:  p,
		Threads:    64,
		MeshWidth:  32,
		MeshHeight: 32,
		OCOR:       true,
		Seed:       11,
		Workers:    4,
		NoC:        &forced,
		Watchdog:   &sim.WatchdogConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("32x32 run failed: %v", err)
	}
	if res.ROIFinish == 0 {
		t.Fatal("zero ROI")
	}
	if res.Acquisitions != 64*3 {
		t.Fatalf("acquisitions = %d, want %d", res.Acquisitions, 64*3)
	}
	if sys.Net.Busy() {
		t.Fatal("network still busy after completion")
	}
	if err := sys.Mem.CheckCoherence(); err != nil {
		t.Fatal(err)
	}

	// The fused executor must not change results on the giant mesh either:
	// a sequential run of the same configuration is byte-identical.
	seq, err := New(Config{
		Benchmark:  p,
		Threads:    64,
		MeshWidth:  32,
		MeshHeight: 32,
		OCOR:       true,
		Seed:       11,
		Watchdog:   &sim.WatchdogConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := seq.Run()
	if err != nil {
		t.Fatalf("sequential 32x32 run failed: %v", err)
	}
	if seqRes != res {
		t.Fatalf("32x32 workers=4 diverged from sequential:\n%+v\n%+v", res, seqRes)
	}
}

// TestGiantMeshSmoke64 pushes the smoke one size up: 64 threads on a
// 64x64 mesh — 4096 nodes, of which 98% never host a thread, exactly the
// regime the O(active) ticking targets. The four-worker fast-forward run,
// with the fused tick forced, must complete, stay coherent, and be
// byte-identical to a sequential run with fast-forward disabled (the
// conservative tick-every-busy-cycle discipline), closing the {workers} x
// {fast-forward} matrix at the platform level on a giant mesh.
func TestGiantMeshSmoke64(t *testing.T) {
	if testing.Short() {
		t.Skip("64x64 platform smoke skipped in -short")
	}
	p := smallProfile()
	p.Iterations = 2
	forced := noc.DefaultConfig()
	forced.ParThreshold = -1
	sys, err := New(Config{
		Benchmark:  p,
		Threads:    64,
		MeshWidth:  64,
		MeshHeight: 64,
		OCOR:       true,
		Seed:       11,
		Workers:    4,
		NoC:        &forced,
		Watchdog:   &sim.WatchdogConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("64x64 run failed: %v", err)
	}
	if res.Acquisitions != 64*2 {
		t.Fatalf("acquisitions = %d, want %d", res.Acquisitions, 64*2)
	}
	if sys.Net.Busy() {
		t.Fatal("network still busy after completion")
	}
	if err := sys.Mem.CheckCoherence(); err != nil {
		t.Fatal(err)
	}

	ncfg := noc.DefaultConfig()
	ncfg.NoFastForward = true
	seq, err := New(Config{
		Benchmark:  p,
		Threads:    64,
		MeshWidth:  64,
		MeshHeight: 64,
		OCOR:       true,
		Seed:       11,
		NoC:        &ncfg,
		Watchdog:   &sim.WatchdogConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := seq.Run()
	if err != nil {
		t.Fatalf("sequential conservative 64x64 run failed: %v", err)
	}
	if seqRes != res {
		t.Fatalf("64x64 workers=4 fast-forward diverged from conservative sequential:\n%+v\n%+v", res, seqRes)
	}
}
