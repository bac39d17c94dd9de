package obs

import (
	"fmt"
	"io"
	"math/bits"

	"repro/internal/checkpoint"
)

// logBuckets is the fixed bucket count of LogHist: power-of-two boundaries
// [0,1), [1,2), [2,4), ... cover latencies up to 2^30 cycles.
const logBuckets = 32

// LogHist is the simulator's one histogram type. It is value-typed and
// allocation-free so its users can hold arrays of them.
type LogHist struct {
	buckets [logBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one sample.
func (h *LogHist) Observe(v uint64) {
	h.buckets[min(bits.Len64(v), logBuckets-1)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge folds another histogram into h: buckets and moments sum, the
// max is the max of maxes. Quantiles of the merge are exact at bucket
// precision, the same guarantee Observe gives.
func (h *LogHist) Merge(o *LogHist) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of samples.
func (h *LogHist) Count() uint64 { return h.count }

// Mean returns the sample mean (0 when empty).
func (h *LogHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample.
func (h *LogHist) Max() uint64 { return h.max }

// Quantile returns an upper bound for the q-quantile (bucket-boundary
// precision).
func (h *LogHist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			// Bucket i covers [2^(i-1), 2^i); the last bucket is unbounded,
			// so report the observed max there.
			if i == logBuckets-1 {
				return h.max
			}
			return uint64(1) << i
		}
	}
	return h.max
}

// SnapshotTo writes the histogram for a checkpoint.
func (h *LogHist) SnapshotTo(w *checkpoint.Writer) {
	for _, c := range h.buckets {
		w.U64(c)
	}
	w.U64(h.count)
	w.U64(h.sum)
	w.U64(h.max)
}

// RestoreFrom overwrites h with a histogram written by SnapshotTo. A
// decode failure is left in r's sticky error.
func (h *LogHist) RestoreFrom(r *checkpoint.Reader) {
	for i := range h.buckets {
		h.buckets[i] = r.U64()
	}
	h.count = r.U64()
	h.sum = r.U64()
	h.max = r.U64()
}

// summary renders one line: count, mean, p50/p95 upper bounds, max.
func (h *LogHist) summary() string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p95<=%d max=%d",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.max)
}

// maxHopBuckets bounds the per-hop-count histogram family; longer paths
// share the last bucket (an 8x8 mesh tops out at 15 hops).
const maxHopBuckets = 24

// Stats is the streaming view of the event stream: it is updated on every
// Emit, so it reflects all emitted events even after the ring evicts them.
type Stats struct {
	// PerHop is the per-hop buffering latency at each traversed router.
	PerHop LogHist
	// ByClass is the in-network packet latency per traffic class.
	ByClass [8]LogHist
	// ByHops is the in-network packet latency keyed by path hop count.
	ByHops [maxHopBuckets]LogHist
	// BT and COH are the per-acquisition blocking time and competition
	// overhead (the paper's Eq. 1 decomposition).
	BT  LogHist
	COH LogHist
	// ArbWins / ArbLosses count contested switch allocations by the
	// Table 1 rule that decided them.
	ArbWins   [NumRules]uint64
	ArbLosses [NumRules]uint64

	Injected uint64
	Ejected  uint64
	Acquires uint64
}

func (s *Stats) observe(ev *Event) {
	switch ev.Kind {
	case KindPktInject:
		s.Injected++
	case KindHop:
		s.PerHop.Observe(ev.V1)
	case KindPktEject:
		s.Ejected++
		if int(ev.A) < len(s.ByClass) {
			s.ByClass[ev.A].Observe(ev.V2)
		}
		h := ev.V1
		if h >= maxHopBuckets {
			h = maxHopBuckets - 1
		}
		s.ByHops[h].Observe(ev.V2)
	case KindAcquire:
		s.Acquires++
		s.BT.Observe(ev.V2)
		s.COH.Observe(ev.V3)
	case KindSAWin:
		s.ArbWins[ev.B]++
	case KindSALoss:
		s.ArbLosses[ev.B]++
	}
}

// Summary writes a human-readable digest. className maps traffic-class
// indices to names (the caller supplies noc.Class.String to keep this
// package free of a noc dependency).
func (s *Stats) Summary(w io.Writer, className func(int) string) {
	fmt.Fprintf(w, "packets: injected %d, ejected %d; acquisitions %d\n", s.Injected, s.Ejected, s.Acquires)
	fmt.Fprintf(w, "per-hop router buffering latency: %s\n", s.PerHop.summary())
	fmt.Fprintf(w, "net latency by class:\n")
	for i := range s.ByClass {
		if s.ByClass[i].Count() == 0 {
			continue
		}
		name := fmt.Sprintf("class%d", i)
		if className != nil {
			name = className(i)
		}
		fmt.Fprintf(w, "  %-8s %s\n", name, s.ByClass[i].summary())
	}
	fmt.Fprintf(w, "net latency by hop count:\n")
	for i := range s.ByHops {
		if s.ByHops[i].Count() == 0 {
			continue
		}
		label := fmt.Sprintf("%d", i)
		if i == maxHopBuckets-1 {
			label = fmt.Sprintf("%d+", i)
		}
		fmt.Fprintf(w, "  %-4s hops %s\n", label, s.ByHops[i].summary())
	}
	if s.Acquires > 0 {
		fmt.Fprintf(w, "blocking time per acquisition:       %s\n", s.BT.summary())
		fmt.Fprintf(w, "competition overhead per acquisition: %s\n", s.COH.summary())
	}
	var contested uint64
	for _, v := range s.ArbLosses {
		contested += v
	}
	if contested > 0 {
		fmt.Fprintf(w, "contested switch allocations by Table 1 rule (wins/losses):\n")
		for r := Rule(0); r < NumRules; r++ {
			if s.ArbWins[r] == 0 && s.ArbLosses[r] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-20s %10d %10d\n", r, s.ArbWins[r], s.ArbLosses[r])
		}
	}
}
