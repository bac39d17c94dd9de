package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 100} {
		res, err := Map(20, jobs, func(i int) (int, error) {
			// Make later items finish first to stress the reorder path.
			time.Sleep(time.Duration(20-i) * time.Millisecond / 10)
			return i * i, nil
		}, nil)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("jobs=%d: res[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmitsInIndexOrder(t *testing.T) {
	var emitted []int
	_, err := Map(16, 8, func(i int) (int, error) {
		time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
		return i, nil
	}, func(i int, v int) {
		if i != v {
			t.Errorf("emit(%d, %d): index/value mismatch", i, v)
		}
		emitted = append(emitted, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 16 {
		t.Fatalf("emitted %d items, want 16", len(emitted))
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("emit order %v not ascending", emitted)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Indices 5 and 11 fail; whichever worker hits them first, Map must
	// report index 5's error because claims are monotonic.
	wantErr := errors.New("boom 5")
	var emitted []int
	_, err := Map(16, 4, func(i int) (int, error) {
		switch i {
		case 5:
			return 0, wantErr
		case 11:
			return 0, errors.New("boom 11")
		}
		return i, nil
	}, func(i int, v int) { emitted = append(emitted, i) })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// Emission must stop before the failed index.
	for _, i := range emitted {
		if i >= 5 {
			t.Fatalf("emitted index %d past the failure at 5", i)
		}
	}
}

// TestMapStopsClaimingAfterFailure has every item fail, so each worker
// records a failure before it could claim a second item: a Map that stops
// claiming after a failure runs at most one item per worker however the
// workers are scheduled, and one that keeps claiming runs all of them.
func TestMapStopsClaimingAfterFailure(t *testing.T) {
	const n, jobs = 1000, 4
	var ran atomic.Int64
	_, err := Map(n, jobs, func(i int) (int, error) {
		ran.Add(1)
		return 0, fmt.Errorf("item %d failed", i)
	}, nil)
	if err == nil || err.Error() != "item 0 failed" {
		t.Fatalf("err = %v, want item 0's failure", err)
	}
	if got := ran.Load(); got > jobs {
		t.Fatalf("ran %d of %d failing items on %d workers; expected the pool to stop claiming", got, n, jobs)
	}
}

func TestMapCapturesPanics(t *testing.T) {
	// A panicking item must not take the process down; it surfaces as a
	// *PanicError, selected like any other failure (lowest index wins).
	_, err := Map(8, 4, func(i int) (int, error) {
		if i == 3 {
			panic("simulated run explosion")
		}
		return i, nil
	}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Index != 3 {
		t.Fatalf("PanicError.Index = %d, want 3", pe.Index)
	}
	if pe.Value != "simulated run explosion" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
}

func TestMapEdgeCases(t *testing.T) {
	if res, err := Map(0, 4, func(i int) (int, error) { return i, nil }, nil); err != nil || len(res) != 0 {
		t.Fatalf("n=0: res=%v err=%v", res, err)
	}
	res, err := Map(3, 0, func(i int) (int, error) { return i + 1, nil }, nil) // jobs=0 -> GOMAXPROCS
	if err != nil || len(res) != 3 || res[2] != 3 {
		t.Fatalf("jobs=0: res=%v err=%v", res, err)
	}
}
