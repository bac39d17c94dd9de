package noc

import (
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestWheelBitmapScans holds the wheel's cyclic bitmap scans to a
// brute-force walk over every start slot, on spans of 2 to 64 slots in
// one word and on two- and four-word bitmaps: firstSet and lastSet must
// return the distance to the nearest and farthest set slot going forward
// from the start, wrapping around.
func TestWheelBitmapScans(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []uint64{2, 4, 32, 64, 128, 256} {
		words := int(n+63) / 64
		for trial := 0; trial < 200; trial++ {
			bm := make([]uint64, words)
			for k := rng.Intn(4); k > 0; k-- {
				i := uint64(rng.Intn(int(n)))
				bm[i>>6] |= 1 << (i & 63)
			}
			for p := uint64(0); p < n; p++ {
				first, last := n, n
				for d := uint64(0); d < n; d++ {
					if i := (p + d) % n; bm[i>>6]&(1<<(i&63)) != 0 {
						if first == n {
							first = d
						}
						last = d
					}
				}
				if got := firstSet(bm, p, n); got != first {
					t.Fatalf("span %d %x from %d: firstSet %d, want %d", n, bm, p, got, first)
				}
				if got := lastSet(bm, p, n); got != last {
					t.Fatalf("span %d %x from %d: lastSet %d, want %d", n, bm, p, got, last)
				}
			}
		}
	}
}

// TestFlitEventSize pins the wheel's flit event at 24 bytes: the drain
// streams these records, and a field that widens one should be a
// deliberate choice.
func TestFlitEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(flitEvent{}); sz != 24 {
		t.Fatalf("flitEvent is %d bytes, want 24", sz)
	}
}

// TestWheelSpan checks the wheel covers every due cycle a send can stamp:
// more slots than the longest flight, at most twice as many, a power of
// two, with one bitmap word per 64 slots or part of one.
func TestWheelSpan(t *testing.T) {
	for _, flight := range []int{1, 8, 63, 64, 100, 1024 + 4096} {
		w := newWheel(flight)
		if s := w.span(); s <= uint64(flight) || s > 2*uint64(flight)+2 || bits.OnesCount64(s) != 1 || uint64(len(w.fbits)) != (s+63)/64 {
			t.Fatalf("flight %d: span %d with %d bitmap words", flight, s, len(w.fbits))
		}
	}
}
