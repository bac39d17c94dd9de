// Package pool provides a deterministic chunked slab allocator used to
// recycle the simulator's hot-path protocol objects (NoC packets, kernel
// and coherence messages).
//
// Determinism is the design constraint: the simulator's regression suite
// requires byte-identical results run to run, so the allocator must hand
// back objects in an order that depends only on the program's own
// alloc/free sequence. A plain LIFO free list over chunked backing arrays
// gives exactly that; sync.Pool does not (its per-P caches and victim
// generations make reuse order scheduling-dependent, and it may drop
// objects at GC).
//
// Objects are addressed by a uint32 ref. Ref 0 is reserved as "no ref":
// Alloc never returns it, and Free ignores it, so objects built outside a
// slab (a test's literal message) pass through the same recycle points.
package pool

import "fmt"

// chunkBits sets the slab chunk size (1<<chunkBits objects per chunk).
// Chunks are never reallocated, so pointers into them are stable for the
// slab's lifetime — references held across Alloc calls stay valid.
const chunkBits = 8

const chunkSize = 1 << chunkBits

// Slab is a deterministic chunked allocator for objects of type T.
// The zero value is ready to use. Not safe for concurrent use; every
// simulator instance owns its slabs, matching the one-goroutine-per-run
// execution model.
type Slab[T any] struct {
	chunks [][]T
	// live tracks per-ref liveness; Free panics on a dead ref (double
	// free) and At panics on a dead ref (use after free).
	live []bool
	// free is the LIFO list of recycled refs.
	free []uint32

	// Stats.
	Allocs uint64 // total Alloc calls
	Reuses uint64 // Allocs served from the free list
	Frees  uint64
}

// Alloc returns an object and its ref. The object is NOT cleared when it
// comes off the free list — callers must fully reset it (the simulator
// resets every field, so a recycled object is indistinguishable from a
// fresh one).
func (s *Slab[T]) Alloc() (uint32, *T) {
	s.Allocs++
	if n := len(s.free); n > 0 {
		ref := s.free[n-1]
		s.free = s.free[:n-1]
		s.live[ref-1] = true
		s.Reuses++
		return ref, s.at(ref)
	}
	idx := len(s.live)
	if idx>>chunkBits == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkSize))
	}
	s.live = append(s.live, true)
	ref := uint32(idx + 1)
	return ref, s.at(ref)
}

func (s *Slab[T]) at(ref uint32) *T {
	i := int(ref - 1)
	return &s.chunks[i>>chunkBits][i&(chunkSize-1)]
}

// At resolves a ref to its object, panicking on ref 0, out-of-range refs
// and refs that have been freed (use after free).
func (s *Slab[T]) At(ref uint32) *T {
	if ref == 0 || int(ref) > len(s.live) {
		panic(fmt.Sprintf("pool: At(%d) out of range (%d objects)", ref, len(s.live)))
	}
	if !s.live[ref-1] {
		panic(fmt.Sprintf("pool: use after free of ref %d", ref))
	}
	return s.at(ref)
}

// Free recycles ref. Ref 0 (an object the slab did not allocate) is a
// no-op, so callers can free unconditionally. Freeing a ref twice panics.
func (s *Slab[T]) Free(ref uint32) {
	if ref == 0 {
		return
	}
	if int(ref) > len(s.live) {
		panic(fmt.Sprintf("pool: Free(%d) out of range (%d objects)", ref, len(s.live)))
	}
	if !s.live[ref-1] {
		panic(fmt.Sprintf("pool: double free of ref %d", ref))
	}
	s.live[ref-1] = false
	s.free = append(s.free, ref)
	s.Frees++
}

// Live returns the number of currently-allocated objects.
func (s *Slab[T]) Live() int { return len(s.live) - len(s.free) }

// Cap returns the total slab capacity in objects (high-water mark).
func (s *Slab[T]) Cap() int { return len(s.live) }
