// Package metrics implements the measurement layer of the reproduction:
// the paper's blocking-time decomposition (Eq. 1), competition-overhead
// accounting, spinning- vs sleeping-phase entry classification, ROI finish
// time, and the network-utilisation / critical-section-access-rate
// characterisation of Fig. 12.
package metrics

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/noc"
	"repro/internal/obs"
)

// Collector accumulates lock lifecycle events during a run. It implements
// kernel.Listener.
type Collector struct {
	// Per-thread accumulation, indexed by thread id.
	perThread map[int]*ThreadMetrics

	TotalBT   uint64
	TotalCOH  uint64
	TotalHeld uint64

	Acquisitions  uint64
	SpinAcquires  uint64
	SleepAcquires uint64
	TotalSleeps   uint64
	TotalRetries  uint64

	// BT and COH are the per-acquisition blocking time and competition
	// overhead, for their means and approximate tail quantiles.
	BT, COH obs.LogHist
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{perThread: make(map[int]*ThreadMetrics)}
}

// ThreadMetrics is the per-thread lock-path accumulation.
type ThreadMetrics struct {
	BT, COH, Held uint64
	Acquisitions  uint64
	SpinAcquires  uint64
	Sleeps        uint64
}

// Acquired implements kernel.Listener.
func (c *Collector) Acquired(ev kernel.AcquireEvent) {
	tm := c.thread(ev.Thread)
	tm.BT += ev.BT
	tm.COH += ev.COH
	tm.Held += ev.HeldByOthers
	tm.Acquisitions++
	tm.Sleeps += uint64(ev.Sleeps)
	c.TotalBT += ev.BT
	c.TotalCOH += ev.COH
	c.TotalHeld += ev.HeldByOthers
	c.Acquisitions++
	c.TotalSleeps += uint64(ev.Sleeps)
	c.TotalRetries += uint64(ev.Retries)
	if ev.SpinPhase {
		c.SpinAcquires++
		tm.SpinAcquires++
	} else {
		c.SleepAcquires++
	}
	c.BT.Observe(ev.BT)
	c.COH.Observe(ev.COH)
}

// Released implements kernel.Listener.
func (c *Collector) Released(kernel.ReleaseEvent) {}

// StateChanged implements kernel.Listener.
func (c *Collector) StateChanged(int, kernel.ThreadState, uint64) {}

func (c *Collector) thread(id int) *ThreadMetrics {
	tm, ok := c.perThread[id]
	if !ok {
		tm = &ThreadMetrics{}
		c.perThread[id] = tm
	}
	return tm
}

// Thread returns the metrics of one thread (nil if it never locked).
func (c *Collector) Thread(id int) *ThreadMetrics { return c.perThread[id] }

// SpinFraction is the fraction of critical sections entered in the
// low-overhead spinning phase (Fig. 11b).
func (c *Collector) SpinFraction() float64 {
	if c.Acquisitions == 0 {
		return 0
	}
	return float64(c.SpinAcquires) / float64(c.Acquisitions)
}

// Results is the consolidated outcome of one simulation run.
type Results struct {
	Benchmark string
	OCOR      bool
	Threads   int
	Nodes     int

	// ROIFinish is the cycle at which the last thread completed.
	ROIFinish uint64

	// Blocking-time decomposition sums over all threads (cycles).
	TotalBT   uint64
	TotalCOH  uint64
	TotalHeld uint64
	// CSTime is the total time spent executing critical sections.
	CSTime uint64

	Acquisitions uint64
	SpinAcquires uint64
	SpinFraction float64
	TotalSleeps  uint64
	TotalRetries uint64
	MeanCOH      float64
	MeanBT       float64

	// COHFraction is COH as a fraction of aggregate thread time
	// (threads x ROI) — the quantity of Figs. 2 and 14a.
	COHFraction float64
	// CSFraction is critical-section execution as a fraction of aggregate
	// thread time (Fig. 2 / Fig. 13).
	CSFraction float64

	// Network characterisation (Fig. 12): average injection rates in
	// packets (or flits) per node per cycle.
	LockInjRate float64
	NetInjRate  float64
	// Latency means per class.
	LockLatency float64
	DataLatency float64

	// Fairness is Jain's index over per-thread mean blocking times (1.0 =
	// perfectly even treatment; see Collector.JainFairness).
	Fairness float64

	// BTP95 and COHP95 are the lower bounds of the power-of-two buckets
	// holding the 95th percentile of the per-acquisition blocking time and
	// competition overhead: half the upper bound obs.LogHist.Quantile gives.
	BTP95  uint64
	COHP95 uint64
}

// Finalize assembles Results from the run's components.
func (c *Collector) Finalize(name string, ocor bool, cpus *cpu.System, net *noc.Network) Results {
	r := Results{
		Benchmark:    name,
		OCOR:         ocor,
		Threads:      len(cpus.Threads),
		Nodes:        net.Cfg.Nodes(),
		ROIFinish:    cpus.ROIFinish(),
		TotalBT:      c.TotalBT,
		TotalCOH:     c.TotalCOH,
		TotalHeld:    c.TotalHeld,
		Acquisitions: c.Acquisitions,
		SpinAcquires: c.SpinAcquires,
		SpinFraction: c.SpinFraction(),
		TotalSleeps:  c.TotalSleeps,
		TotalRetries: c.TotalRetries,
		MeanCOH:      c.COH.Mean(),
		MeanBT:       c.BT.Mean(),
	}
	for _, t := range cpus.Threads {
		r.CSTime += t.Stats.CSCycles
	}
	aggregate := float64(r.ROIFinish) * float64(r.Threads)
	if aggregate > 0 {
		r.COHFraction = float64(r.TotalCOH) / aggregate
		r.CSFraction = float64(r.CSTime) / aggregate
	}
	cycles := float64(r.ROIFinish)
	nodes := float64(r.Nodes)
	if cycles > 0 {
		lockPkts := net.Stats.InjectedPkts[noc.ClassLock] + net.Stats.InjectedPkts[noc.ClassWakeup]
		r.LockInjRate = float64(lockPkts) / cycles / nodes
		r.NetInjRate = float64(net.Stats.InjectedFlits) / cycles / nodes
	}
	r.LockLatency = net.Stats.NetLatency[noc.ClassLock].Mean()
	r.DataLatency = net.Stats.NetLatency[noc.ClassData].Mean()
	r.Fairness = c.JainFairness()
	r.BTP95 = bucketFloor(c.BT.Quantile(0.95))
	r.COHP95 = bucketFloor(c.COH.Quantile(0.95))
	return r
}

// bucketFloor turns a LogHist quantile, its bucket's upper bound, into
// the bucket's lower bound (the bucket [0, 1) reports 1, and empty 0).
// Only the last bucket, from 2^30 cycles, would not halve exactly.
func bucketFloor(q uint64) uint64 {
	if q <= 1 {
		return q
	}
	return q / 2
}

// COHImprovement returns the relative COH reduction of b (with OCOR) over a
// (baseline), as the paper reports in Fig. 11a.
func COHImprovement(base, ocor Results) float64 {
	if base.TotalCOH == 0 {
		return 0
	}
	return 1 - float64(ocor.TotalCOH)/float64(base.TotalCOH)
}

// ROIImprovement returns the relative ROI finish time reduction (Fig. 14b).
func ROIImprovement(base, ocor Results) float64 {
	if base.ROIFinish == 0 {
		return 0
	}
	return 1 - float64(ocor.ROIFinish)/float64(base.ROIFinish)
}

// SpinFractionGain returns the percentage-point increase in spinning-phase
// entries (Fig. 11b).
func SpinFractionGain(base, ocor Results) float64 {
	return ocor.SpinFraction - base.SpinFraction
}

// JainFairness computes Jain's fairness index over the threads' mean
// blocking times: 1.0 means every thread waited equally; 1/n means one
// thread absorbed all the waiting. The paper's §4.2 argues the
// priority-based scheduling stays fair because FIFO order is preserved
// within VCs and slow-progress threads are boosted; this index quantifies
// that claim for a run.
func (c *Collector) JainFairness() float64 {
	// Iterate threads in id order: float summation order must not depend
	// on map iteration, or the index's low bits vary run to run.
	ids := make([]int, 0, len(c.perThread))
	for id := range c.perThread {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum, sumSq float64
	n := 0
	for _, id := range ids {
		tm := c.perThread[id]
		if tm.Acquisitions == 0 {
			continue
		}
		mean := float64(tm.BT) / float64(tm.Acquisitions)
		sum += mean
		sumSq += mean * mean
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// MaxThreadCOH returns the largest per-thread COH sum — the worst-treated
// thread's overhead (starvation indicator).
func (c *Collector) MaxThreadCOH() uint64 {
	var max uint64
	for _, tm := range c.perThread {
		if tm.COH > max {
			max = tm.COH
		}
	}
	return max
}
