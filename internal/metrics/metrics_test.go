package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
)

func ev(thread, lock int, bt, held uint64, spin bool, sleeps int) kernel.AcquireEvent {
	return kernel.AcquireEvent{
		Thread: thread, Lock: lock,
		BT: bt, HeldByOthers: held, COH: bt - held,
		SpinPhase: spin, Sleeps: sleeps, Retries: 1,
	}
}

func TestCollectorAccumulation(t *testing.T) {
	c := NewCollector()
	c.Acquired(ev(0, 0, 100, 60, true, 0))
	c.Acquired(ev(0, 0, 200, 50, false, 2))
	c.Acquired(ev(1, 0, 300, 300, true, 0))

	if c.Acquisitions != 3 || c.SpinAcquires != 2 || c.SleepAcquires != 1 {
		t.Fatalf("counts wrong: %+v", c)
	}
	if c.TotalBT != 600 || c.TotalHeld != 410 || c.TotalCOH != 190 {
		t.Fatalf("sums wrong: bt=%d held=%d coh=%d", c.TotalBT, c.TotalHeld, c.TotalCOH)
	}
	if c.TotalSleeps != 2 {
		t.Fatalf("sleeps = %d", c.TotalSleeps)
	}
	if got := c.SpinFraction(); got != 2.0/3 {
		t.Fatalf("spin fraction = %f", got)
	}
	tm := c.Thread(0)
	if tm == nil || tm.BT != 300 || tm.COH != 190 || tm.Acquisitions != 2 {
		t.Fatalf("thread 0 metrics: %+v", tm)
	}
	if c.Thread(99) != nil {
		t.Fatal("unknown thread should be nil")
	}
	if c.COH.Count() != 3 {
		t.Fatal("distribution not recorded")
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if c.SpinFraction() != 0 {
		t.Fatal("empty spin fraction")
	}
}

func TestImprovementHelpers(t *testing.T) {
	base := Results{TotalCOH: 1000, ROIFinish: 500, SpinFraction: 0.4}
	ocor := Results{TotalCOH: 400, ROIFinish: 425, SpinFraction: 0.9}
	if got := COHImprovement(base, ocor); got != 0.6 {
		t.Fatalf("COH improvement = %f", got)
	}
	if got := ROIImprovement(base, ocor); got < 0.1499 || got > 0.1501 {
		t.Fatalf("ROI improvement = %f", got)
	}
	if got := SpinFractionGain(base, ocor); got < 0.499 || got > 0.501 {
		t.Fatalf("spin gain = %f", got)
	}
	// Degenerate baselines.
	if COHImprovement(Results{}, ocor) != 0 {
		t.Fatal("zero-COH baseline should give 0")
	}
	if ROIImprovement(Results{}, ocor) != 0 {
		t.Fatal("zero-ROI baseline should give 0")
	}
}

func TestCollectorInvariant(t *testing.T) {
	// Property: BT sums always equal held + COH sums after any event mix.
	f := func(raw []uint32) bool {
		c := NewCollector()
		for i, r := range raw {
			bt := uint64(r % 10000)
			held := uint64(r % 997)
			if held > bt {
				held = bt
			}
			c.Acquired(ev(i%8, i%3, bt, held, r%2 == 0, int(r%3)))
		}
		return c.TotalBT == c.TotalHeld+c.TotalCOH &&
			c.SpinAcquires+c.SleepAcquires == c.Acquisitions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJainFairness(t *testing.T) {
	c := NewCollector()
	// Perfectly even: two threads with identical mean BT.
	c.Acquired(ev(0, 0, 100, 0, true, 0))
	c.Acquired(ev(1, 0, 100, 0, true, 0))
	if f := c.JainFairness(); f < 0.999 {
		t.Fatalf("even fairness = %f", f)
	}
	// Skewed: one thread waits 10x longer.
	c2 := NewCollector()
	c2.Acquired(ev(0, 0, 1000, 0, true, 0))
	c2.Acquired(ev(1, 0, 100, 0, true, 0))
	if f := c2.JainFairness(); f > 0.9 {
		t.Fatalf("skewed fairness = %f, want < 0.9", f)
	}
	// Empty collector defaults to 1.
	if f := NewCollector().JainFairness(); f != 1 {
		t.Fatalf("empty fairness = %f", f)
	}
}

func TestMaxThreadCOH(t *testing.T) {
	c := NewCollector()
	c.Acquired(ev(0, 0, 100, 20, true, 0))
	c.Acquired(ev(1, 0, 500, 100, true, 0))
	if got := c.MaxThreadCOH(); got != 400 {
		t.Fatalf("max thread COH = %d", got)
	}
}

func TestHistogramsRecorded(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Acquired(ev(i%4, 0, uint64(10+i*10), 0, true, 0))
	}
	if c.BT.Count() != 100 || c.COH.Count() != 100 {
		t.Fatal("histograms not populated")
	}
	p95 := c.BT.Quantile(0.95)
	p50 := c.BT.Quantile(0.5)
	if p95 < p50 {
		t.Fatalf("quantiles inverted: p50=%d p95=%d", p50, p95)
	}
	if p95 != 1024 { // the 95th sample, 960, lies in [512, 1024)
		t.Fatalf("p95 bound = %d, want 1024", p95)
	}
	// Results reports the bucket's lower bound, and 0 for no samples.
	if got := bucketFloor(p95); got != 512 {
		t.Fatalf("Results p95 = %d, want 512", got)
	}
	if got := bucketFloor(NewCollector().BT.Quantile(0.95)); got != 0 {
		t.Fatalf("Results p95 of no samples = %d, want 0", got)
	}
}
