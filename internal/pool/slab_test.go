package pool

import "testing"

type obj struct {
	a, b uint64
}

func TestAllocFreeReuse(t *testing.T) {
	var s Slab[obj]
	ref1, p1 := s.Alloc()
	if ref1 == 0 || p1 == nil {
		t.Fatalf("Alloc returned ref=%d p=%v", ref1, p1)
	}
	ref2, _ := s.Alloc()
	if ref2 == ref1 {
		t.Fatalf("distinct allocations share ref %d", ref1)
	}
	s.Free(ref1)
	ref3, p3 := s.Alloc()
	if ref3 != ref1 || p3 != p1 {
		t.Fatalf("LIFO reuse broken: got ref %d (%p), want %d (%p)", ref3, p3, ref1, p1)
	}
	if s.Allocs != 3 || s.Reuses != 1 || s.Frees != 1 {
		t.Fatalf("stats allocs/reuses/frees = %d/%d/%d, want 3/1/1", s.Allocs, s.Reuses, s.Frees)
	}
	if s.Live() != 2 {
		t.Fatalf("Live() = %d, want 2", s.Live())
	}
	s.Free(0) // ref 0 names no slab object: a no-op, not a panic
	if s.Frees != 1 || s.Live() != 2 {
		t.Fatalf("Free(0) changed the slab: frees=%d live=%d", s.Frees, s.Live())
	}
}

func TestLIFOOrder(t *testing.T) {
	var s Slab[obj]
	var refs []uint32
	for i := 0; i < 4; i++ {
		r, _ := s.Alloc()
		refs = append(refs, r)
	}
	for _, r := range refs {
		s.Free(r)
	}
	// Reuse must come back in reverse free order — deterministic LIFO.
	for i := len(refs) - 1; i >= 0; i-- {
		r, _ := s.Alloc()
		if r != refs[i] {
			t.Fatalf("reuse order: got ref %d, want %d", r, refs[i])
		}
	}
}

func TestPointerStabilityAcrossChunkGrowth(t *testing.T) {
	var s Slab[obj]
	ref, p := s.Alloc()
	p.a = 42
	// Force several chunk growths; the first pointer must stay valid.
	for i := 0; i < 3*chunkSize; i++ {
		s.Alloc()
	}
	if q := s.At(ref); q != p || q.a != 42 {
		t.Fatalf("pointer moved across chunk growth: %p != %p (a=%d)", q, p, q.a)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	var s Slab[obj]
	ref, _ := s.Alloc()
	s.Free(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	s.Free(ref)
}

func TestUseAfterFreePanics(t *testing.T) {
	var s Slab[obj]
	ref, _ := s.Alloc()
	s.Free(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("At on freed ref did not panic")
		}
	}()
	s.At(ref)
}

func TestAtRejectsZeroAndOutOfRange(t *testing.T) {
	var s Slab[obj]
	s.Alloc()
	for _, ref := range []uint32{0, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) did not panic", ref)
				}
			}()
			s.At(ref)
		}()
	}
}

// mustPanicMsg asserts fn panics with exactly msg — these strings are the
// diagnostics users see when a recycle point is wrong, so they are part
// of the package's contract.
func mustPanicMsg(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", msg)
		}
		if got, ok := r.(string); !ok || got != msg {
			t.Fatalf("panic %v, want %q", r, msg)
		}
	}()
	fn()
}

func TestPanicMessages(t *testing.T) {
	var s Slab[obj]
	ref, _ := s.Alloc()
	mustPanicMsg(t, "pool: At(0) out of range (1 objects)", func() { s.At(0) })
	mustPanicMsg(t, "pool: At(99) out of range (1 objects)", func() { s.At(99) })
	mustPanicMsg(t, "pool: Free(99) out of range (1 objects)", func() { s.Free(99) })
	s.Free(ref)
	mustPanicMsg(t, "pool: use after free of ref 1", func() { s.At(ref) })
	mustPanicMsg(t, "pool: double free of ref 1", func() { s.Free(ref) })
}

func TestSteadyStateAllocFree(t *testing.T) {
	// A churning alloc/free loop must stop growing the slab once the
	// working set is covered: everything comes off the free list.
	var s Slab[obj]
	var refs []uint32
	for i := 0; i < 8; i++ {
		r, _ := s.Alloc()
		refs = append(refs, r)
	}
	for round := 0; round < 100; round++ {
		for _, r := range refs {
			s.Free(r)
		}
		refs = refs[:0]
		for i := 0; i < 8; i++ {
			r, _ := s.Alloc()
			refs = append(refs, r)
		}
	}
	if s.Cap() != 8 {
		t.Fatalf("steady-state churn grew the slab to %d objects, want 8", s.Cap())
	}
	if s.Reuses != 800 {
		t.Fatalf("Reuses = %d, want 800", s.Reuses)
	}
}
