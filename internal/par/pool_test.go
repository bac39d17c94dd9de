package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunCoversAllWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		for round := 0; round < 3; round++ {
			var hits [8]atomic.Int64
			p.Run(func(w int) { hits[w].Add(1) })
			for w := 0; w < workers; w++ {
				if n := hits[w].Load(); n != 1 {
					t.Fatalf("workers=%d round=%d: worker %d ran %d times, want 1", workers, round, w, n)
				}
			}
			for w := workers; w < len(hits); w++ {
				if n := hits[w].Load(); n != 0 {
					t.Fatalf("workers=%d: phantom worker %d ran %d times", workers, w, n)
				}
			}
		}
		p.Close()
	}
}

func TestPoolRunIsABarrier(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum atomic.Int64
	for round := 0; round < 100; round++ {
		p.Run(func(w int) { sum.Add(int64(w)) })
		// All contributions of this round must be visible once Run returns.
		if got, want := sum.Load(), int64((0+1+2+3)*(round+1)); got != want {
			t.Fatalf("round %d: sum %d after Run, want %d", round, got, want)
		}
	}
}

func TestPoolMinimumSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("NewPool(0).Workers() = %d, want 1", p.Workers())
	}
	ran := false
	p.Run(func(w int) { ran = w == 0 })
	if !ran {
		t.Fatal("single-worker pool did not run fn(0) on the caller")
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// The panic of the lowest worker id must surface, and the pool must
	// remain usable afterwards (no worker died unwinding).
	for _, panicker := range []int{0, 2, 3} {
		got := func() (v any) {
			defer func() { v = recover() }()
			p.Run(func(w int) {
				if w == panicker {
					panic(w)
				}
			})
			return nil
		}()
		if got != panicker {
			t.Fatalf("recovered %v, want %v", got, panicker)
		}
		var ok atomic.Int64
		p.Run(func(w int) { ok.Add(1) })
		if ok.Load() != 4 {
			t.Fatalf("pool degraded after panic: %d workers ran", ok.Load())
		}
	}
}

func TestPoolPanicPrefersLowestWorker(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	got := func() (v any) {
		defer func() { v = recover() }()
		p.Run(func(w int) { panic(w) })
		return nil
	}()
	if got != 0 {
		t.Fatalf("recovered %v, want the lowest worker id 0", got)
	}
}

func TestPoolRunAfterCloseP(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a closed pool did not panic")
		}
	}()
	p.Run(func(int) {})
}

// BenchmarkPoolRun measures the fork-join dispatch overhead of a persistent
// pool: the cost of handing an (empty) task set to every worker and waiting
// for the barrier.
func BenchmarkPoolRun(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(sizeName(workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			fn := func(int) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(fn)
			}
		})
	}
}

// BenchmarkSpawnRun is the strawman BenchmarkPoolRun replaces: spawning
// fresh goroutines per dispatch with a WaitGroup barrier. The delta between
// the two is what keeping workers alive across Run calls buys.
func BenchmarkSpawnRun(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(sizeName(workers), func(b *testing.B) {
			fn := func(int) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 1; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						fn(w)
					}()
				}
				fn(0)
				wg.Wait()
			}
		})
	}
}

func sizeName(workers int) string {
	return "workers=" + string(rune('0'+workers))
}
