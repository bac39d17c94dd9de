package repro

import "testing"

// TestPoolsDrainAtQuiescence requires every pooled packet and message to be
// back on its freelist once a run drains: a live object at quiescence is a
// leak (a missing recycle point).
func TestPoolsDrainAtQuiescence(t *testing.T) {
	sys, err := New(Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	allocs, reuses, _, live := sys.Net.PoolStats()
	if allocs == 0 || reuses == 0 {
		t.Fatalf("packet pool unused: allocs=%d reuses=%d", allocs, reuses)
	}
	if live != 0 {
		t.Fatalf("%d packets still live at quiescence (leaked recycle point)", live)
	}
	if n := sys.Kernel.MsgsLive(); n != 0 {
		t.Fatalf("%d kernel messages still live at quiescence", n)
	}
	if n := sys.Mem.MsgsLive(); n != 0 {
		t.Fatalf("%d coherence messages still live at quiescence", n)
	}
}

// TestSteadyStateAllocs drives a warmed-up platform and asserts the hot
// path allocates (nearly) nothing: the packet/message slabs, MSHR and
// directory-entry freelists, and closure-free timers must cover it. The
// budget of 2 allocs/op absorbs map-bucket growth inside Go's runtime;
// the pre-pooling figure was several hundred per op at this granularity.
func TestSteadyStateAllocs(t *testing.T) {
	prof := detProfile()
	prof.Iterations = 2000 // long enough to stay busy past warmup + sampling
	sys, err := New(Config{Benchmark: prof, Threads: 16, OCOR: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sys.CPU.Start(sys.Engine.Now())
	// Warm up: let caches fill, pools grow to the working set, and scratch
	// buffers reach their high-water capacity.
	for i := 0; i < 20_000 && !sys.CPU.AllDone(); i++ {
		sys.Engine.Step()
	}
	if sys.CPU.AllDone() {
		t.Fatal("workload finished during warmup; grow the profile")
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			sys.Engine.Step()
		}
	})
	if avg > 2 {
		t.Fatalf("steady state allocates %.1f objects per 50 cycles, want <= 2", avg)
	}
}

// BenchmarkSteadyStateStep is the CI allocation smoke benchmark: it steps a
// warmed-up contended platform and reports allocs/op, which the benchmark
// smoke job compares against the committed threshold in
// .github/alloc-threshold. Run with a fixed -benchtime (e.g. 20000x) so the
// workload stays busy for the whole measurement.
func BenchmarkSteadyStateStep(b *testing.B) {
	prof := detProfile()
	prof.Iterations = 2000
	sys, err := New(Config{Benchmark: prof, Threads: 16, OCOR: true, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	sys.CPU.Start(sys.Engine.Now())
	for i := 0; i < 20_000 && !sys.CPU.AllDone(); i++ {
		sys.Engine.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Engine.Step()
	}
}
