package repro

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// TestCellKeyPinned pins the literal identity strings of a plain cell.
// Fleet spools resume by Cell.Key and warm-start snapshots are filed by
// PrefixKey, so a drift in either orphans every spool and prefix cache
// already on disk.
func TestCellKeyPinned(t *testing.T) {
	c := experiments.Cell{
		Profile: detProfile(), Threads: 16, OCOR: true, Levels: 8,
		Seed: 7, Protocol: "mcs", Workers: 2,
	}
	const profile = "det(TEST, cs=low, net=low)"
	if got, want := c.Key(), profile+"|t16|otrue|l8|s7|pmcs|nfalse|w2"; got != want {
		t.Errorf("Key() = %q\nwant     %q", got, want)
	}
	if got, want := c.PrefixKey(), profile+"|t16|otrue|s7|nfalse|w2"; got != want {
		t.Errorf("PrefixKey() = %q\nwant           %q", got, want)
	}
}

// TestCellKeyWorkersZero checks that a cell with Workers 0, which the
// commands build, keys like Workers 1, the -workers default that existing
// spools and prefix caches were written with: both run sequentially.
func TestCellKeyWorkersZero(t *testing.T) {
	zero := experiments.Cell{Profile: detProfile(), Threads: 16, OCOR: true, Levels: 8, Seed: 7}
	one := zero
	one.Workers = 1
	if zero.Key() != one.Key() || zero.PrefixKey() != one.PrefixKey() {
		t.Fatalf("Workers 0 keys %q / %q, Workers 1 keys %q / %q",
			zero.Key(), zero.PrefixKey(), one.Key(), one.PrefixKey())
	}
}

// TestKnobCellsRunCold puts a trace and a fault cell beside a plain cell
// in one warm grid. They share the plain cell's prefix key, but a
// restored platform would lose the prefix's timeline regions and
// injected faults, so each must run from cycle zero and reproduce its
// cold-grid CellResult exactly, while the plain cell still forks and
// reports the same BT/COH histograms and handoff counts as its cold run.
func TestKnobCellsRunCold(t *testing.T) {
	plain := experiments.Cell{Profile: detProfile(), Threads: 16, OCOR: true, Seed: 7, Protocol: "mcs"}
	trace, faulted := plain, plain
	trace.TraceThreads = 4
	faulted.Faults = fault.Plan{Seed: 7, DropRate: 0.01}
	faulted.Recovery = true
	cells := []experiments.Cell{plain, trace, faulted}
	for _, c := range cells[1:] {
		if c.Forkable() || c.Key() == plain.Key() || c.PrefixKey() != plain.PrefixKey() {
			t.Fatalf("knob cell %+v: forkable=%v, key and prefix key must differ/match the plain cell's", c, c.Forkable())
		}
	}

	cold, _, err := experiments.RunGrid(cells, experiments.GridOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, st, err := experiments.RunGrid(cells, experiments.GridOptions{Warm: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Forked != 1 || warm[0].PrefixCycle == 0 {
		t.Fatalf("plain cell did not fork: stats %+v", st)
	}
	if cold[1].Timeline == "" || cold[2].Faults.DroppedTails == 0 {
		t.Fatalf("knob cells lost their views: timeline %q, %d drops", cold[1].Timeline, cold[2].Faults.DroppedTails)
	}
	c, w := cold[0], warm[0]
	if c.BT.Count() == 0 || c.BT != w.BT || c.COH != w.COH || c.Handoffs == 0 ||
		c.Handoffs != w.Handoffs || c.MaxQueueDepth != w.MaxQueueDepth {
		t.Fatalf("forked plain cell's views differ from its cold run's: BT %d/%d samples, handoffs %d/%d, max queue %d/%d",
			c.BT.Count(), w.BT.Count(), c.Handoffs, w.Handoffs, c.MaxQueueDepth, w.MaxQueueDepth)
	}
	for i := 1; i < len(cells); i++ {
		if c, w := fmt.Sprintf("%#v", cold[i]), fmt.Sprintf("%#v", warm[i]); c != w {
			t.Fatalf("cell %d in a warm grid differs from its cold run:\ncold: %s\nwarm: %s", i, c, w)
		}
	}
}

// TestCellRunnerReportsFailure checks that the fleet adapter turns a fault
// cell's recorded failure into an error, so the fleet retries or
// quarantines it instead of journaling zeroed results.
func TestCellRunnerReportsFailure(t *testing.T) {
	c := experiments.Cell{Profile: detProfile(), Threads: 16, OCOR: true, Seed: 7,
		Faults: fault.Plan{Seed: 7, DropRate: 0.05}}
	res, _, err := experiments.RunGrid([]experiments.Cell{c}, experiments.GridOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Failure == "" {
		t.Fatal("fault cell completed; the test needs a failing one")
	}
	if _, err := CellRunner(CellRunnerOptions{})(c); err == nil || err.Error() != res[0].Failure {
		t.Fatalf("CellRunner error = %v, want %q", err, res[0].Failure)
	}
}
