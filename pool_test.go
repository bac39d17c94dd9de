package repro

import (
	"testing"

	"repro/internal/workload"
)

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

// warmPlatform builds the steady-state gate's 16-thread OCOR platform on
// prof, stretched to 2000 iterations so it stays busy past warmup and
// sampling, and steps it 20,000 cycles: long enough for caches to fill,
// pools to grow to the working set and scratch buffers to reach their
// high-water capacity.
func warmPlatform(tb testing.TB, prof workload.Profile) *System {
	tb.Helper()
	prof.Iterations = 2000
	sys, err := New(Config{Benchmark: prof, Threads: 16, OCOR: true, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	sys.CPU.Start(sys.Engine.Now())
	for i := 0; i < 20_000 && !sys.CPU.AllDone(); i++ {
		sys.Engine.Step()
	}
	if sys.CPU.AllDone() {
		tb.Fatal("workload finished during warmup; grow the profile")
	}
	return sys
}

// evictingProfile is detProfile with a 1024-block private working set and
// denser private traffic (20 accesses per 100-cycle gap). detProfile's 64
// blocks fit the 256-line L1, so its steady state never evicts; this one
// overflows the L1 and evicts about three lines per 50-cycle window, so an
// allocation per eviction breaks the 2-object budget.
func evictingProfile() workload.Profile {
	p := detProfile()
	p.WorkingSet = 1024
	p.ComputeGap, p.GapMemOps = 100, 20
	return p
}

// window is the steady-state gates' unit of measurement in cycles.
const window = 50

func stepWindow(sys *System) {
	for i := 0; i < window; i++ {
		sys.Engine.Step()
	}
}

// TestSteadyStateAllocs drives a warmed-up platform and asserts the hot
// path allocates (nearly) nothing: the packet/message slabs, MSHR,
// write-back and directory-entry freelists, and closure-free timers must
// cover it. The budget of 2 allocs per window absorbs map-bucket growth
// inside Go's runtime; the pre-pooling figure was several hundred at this
// granularity. The evicting workload must really evict in the measured
// windows, so the L1 write-back path is inside what the gate sees.
func TestSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		prof   workload.Profile
		evicts bool
	}{
		{"det", detProfile(), false},
		{"evicting", evictingProfile(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := warmPlatform(t, c.prof)
			evictions := func() uint64 {
				var n uint64
				for _, th := range sys.CPU.Threads {
					n += sys.Mem.L1(th.ID).Stats.Evictions
				}
				return n
			}
			before := evictions()
			avg := testing.AllocsPerRun(100, func() { stepWindow(sys) })
			if c.evicts && evictions() == before {
				t.Fatal("no L1 evictions in the measured windows; grow the working set")
			}
			if avg > 2 {
				t.Fatalf("steady state allocates %.1f objects per %d cycles, want <= 2", avg, window)
			}
		})
	}
}

// BenchmarkSteadyStateStep is the CI allocation smoke benchmark: it steps a
// warmed-up contended platform and reports allocs/op, which the benchmark
// smoke job compares against the committed threshold in
// .github/alloc-threshold. Run with a fixed -benchtime (e.g. 20000x) so the
// workload stays busy for the whole measurement.
func BenchmarkSteadyStateStep(b *testing.B) {
	sys := warmPlatform(b, detProfile())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Engine.Step()
	}
}

// BenchmarkSteadyStateWindowEvicting is the smoke for the evicting
// workload. One op is a 50-cycle window, as in the test, because a few
// allocations per window vanish in a per-cycle integer allocs/op; the
// benchmark smoke job gates it against .github/evict-alloc-threshold. Run
// with a fixed -benchtime (e.g. 2000x).
func BenchmarkSteadyStateWindowEvicting(b *testing.B) {
	sys := warmPlatform(b, evictingProfile())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepWindow(sys)
	}
	if sys.CPU.AllDone() {
		b.Fatal("workload finished inside the measurement; lower -benchtime")
	}
}
