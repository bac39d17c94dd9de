package mem

import "math/bits"

// MaxSharers is the number of node ids a nodeSet holds (ids 0..255). The
// directory tracks every caching core in one, so it caps a platform's
// thread count (thread i runs on node i).
const MaxSharers = 256

// nodeSet is a small bitset of node ids used for directory sharer lists.
type nodeSet [MaxSharers / 64]uint64

func (s *nodeSet) add(n int)      { s[n>>6] |= 1 << (uint(n) & 63) }
func (s *nodeSet) remove(n int)   { s[n>>6] &^= 1 << (uint(n) & 63) }
func (s *nodeSet) has(n int) bool { return s[n>>6]&(1<<(uint(n)&63)) != 0 }

func (s *nodeSet) count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

func (s *nodeSet) empty() bool { return *s == nodeSet{} }

func (s *nodeSet) clear() { *s = nodeSet{} }

// forEach calls fn for every member in ascending order.
func (s *nodeSet) forEach(fn func(n int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// members returns the set as a sorted slice (for tests and traces).
func (s *nodeSet) members() []int {
	var out []int
	s.forEach(func(n int) { out = append(out, n) })
	return out
}
