package noc

import (
	"testing"
	"unsafe"
)

// TestVCBufRing exercises the fixed-capacity ring buffer through several
// wrap-arounds, including interleaved push/pop: flits come out in arrival
// order, and seq and headEnq always describe the oldest one.
func TestVCBufRing(t *testing.T) {
	const depth = 4
	ring := make([]uint64, depth)
	v := &vcBuf{}

	next := 0 // next sequence to push; flit k arrives at cycle 100+k
	want := 0 // next sequence expected at the head
	for round := 0; round < 3*depth; round++ {
		// Fill to capacity...
		for v.n < depth {
			v.push(ring, uint64(100+next))
			next++
		}
		// ...then drain a varying amount so hd lands on every slot.
		drain := 1 + round%depth
		for i := 0; i < drain; i++ {
			if v.seq != int32(want) || v.headEnq != uint64(100+want) {
				t.Fatalf("round %d: head seq %d at %d, want %d at %d", round, v.seq, v.headEnq, want, 100+want)
			}
			v.pop(ring)
			want++
		}
	}
	// Drain the rest.
	for v.n > 0 {
		if v.seq != int32(want) || v.headEnq != uint64(100+want) {
			t.Fatalf("final drain: head seq %d at %d, want %d", v.seq, v.headEnq, want)
		}
		v.pop(ring)
		want++
	}
	if want != next {
		t.Fatalf("popped %d flits, pushed %d", want, next)
	}
	// The 32-byte record is what lets a port's six VCs span three cache
	// lines; a field that widens it should be a deliberate choice.
	if sz := unsafe.Sizeof(vcBuf{}); sz != 32 {
		t.Fatalf("vcBuf is %d bytes, want 32", sz)
	}
}
