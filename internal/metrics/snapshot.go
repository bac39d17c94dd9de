package metrics

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
)

// SnapshotTo writes the collector's accumulated lock-path measurements:
// the global counters, the BT and COH histograms and the per-thread
// accumulation in sorted thread order.
func (c *Collector) SnapshotTo(w *checkpoint.Writer) {
	w.Begin("metrics")
	for _, v := range []uint64{
		c.TotalBT, c.TotalCOH, c.TotalHeld, c.Acquisitions, c.SpinAcquires,
		c.SleepAcquires, c.TotalSleeps, c.TotalRetries,
	} {
		w.U64(v)
	}
	c.BT.SnapshotTo(w)
	c.COH.SnapshotTo(w)
	ids := make([]int, 0, len(c.perThread))
	for id := range c.perThread {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Len(len(ids))
	for _, id := range ids {
		tm := c.perThread[id]
		w.Int(id)
		w.U64(tm.BT)
		w.U64(tm.COH)
		w.U64(tm.Held)
		w.U64(tm.Acquisitions)
		w.U64(tm.SpinAcquires)
		w.U64(tm.Sleeps)
	}
	w.End()
}

// RestoreFrom overwrites a fresh collector's state with a snapshot written
// by SnapshotTo.
func (c *Collector) RestoreFrom(r *checkpoint.Reader) error {
	r.Begin("metrics")
	for _, p := range []*uint64{
		&c.TotalBT, &c.TotalCOH, &c.TotalHeld, &c.Acquisitions, &c.SpinAcquires,
		&c.SleepAcquires, &c.TotalSleeps, &c.TotalRetries,
	} {
		*p = r.U64()
	}
	c.BT.RestoreFrom(r)
	c.COH.RestoreFrom(r)
	n := r.Len()
	if r.Err() != nil {
		return r.Err()
	}
	c.perThread = make(map[int]*ThreadMetrics, n)
	for i := 0; i < n; i++ {
		id := r.Int()
		tm := &ThreadMetrics{
			BT:           r.U64(),
			COH:          r.U64(),
			Held:         r.U64(),
			Acquisitions: r.U64(),
			SpinAcquires: r.U64(),
			Sleeps:       r.U64(),
		}
		c.perThread[id] = tm
	}
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}
