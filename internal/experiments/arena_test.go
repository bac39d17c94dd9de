package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// fakeArenaCell produces synthetic cells with a strict speed order:
// mcs < cna < reciprocating < mutable < baseline on ROI, OCOR shaving a
// constant off each, so the leaderboard ranking is fully predictable.
func fakeArenaCell(c Cell) (CellResult, error) {
	speed := map[string]uint64{"mcs": 1000, "cna": 2000, "reciprocating": 3000, "mutable": 4000, "baseline": 5000}
	roi := speed[c.Protocol]
	if c.OCOR {
		roi -= 500
	}
	run := CellResult{
		Results: metrics.Results{
			Benchmark: c.Profile.Name, OCOR: c.OCOR, Threads: c.Threads,
			ROIFinish: roi, TotalBT: roi / 2, TotalCOH: roi / 4,
			Acquisitions: 10, SpinFraction: 0.5,
		},
		Handoffs: 7, MaxQueueDepth: 3,
	}
	run.BT.Observe(roi / 10)
	run.BT.Observe(roi / 5)
	run.COH.Observe(roi / 20)
	return run, nil
}

func withFakeArena(t *testing.T) { withRunner(t, fakeArenaCell) }

func TestArenaLeaderboardRanking(t *testing.T) {
	withFakeArena(t)
	var progress bytes.Buffer
	rep, err := RunArena(ArenaOptions{Benches: []string{"body", "can"}}, &progress)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Leaderboard) != 10 {
		t.Fatalf("leaderboard = %d entries, want 10", len(rep.Leaderboard))
	}
	// mcs+OCOR is the fastest synthetic combination; baseline without
	// OCOR the slowest. Ranks are 1-based and dense.
	first, last := rep.Leaderboard[0], rep.Leaderboard[9]
	if first.Protocol != "mcs" || !first.OCOR || first.Rank != 1 {
		t.Fatalf("winner = %+v", first)
	}
	if last.Protocol != "baseline" || last.OCOR || last.Rank != 10 {
		t.Fatalf("loser = %+v", last)
	}
	// Two benches of 1000+? ROI sum; handoffs sum, depth maxes, and the
	// merged histograms carry both benches' samples.
	if first.TotalROI != 2*500 || first.Handoffs != 14 || first.MaxQueueDepth != 3 {
		t.Fatalf("aggregation: %+v", first)
	}
	if first.BT.Count != 4 || first.COH.Count != 2 {
		t.Fatalf("merged histograms: BT=%d COH=%d", first.BT.Count, first.COH.Count)
	}
	if got := len(first.Cells); got != 2 {
		t.Fatalf("cells = %d", got)
	}
	if !strings.Contains(progress.String(), "arena mcs") {
		t.Fatalf("progress output missing: %q", progress.String())
	}
}

func TestArenaDeterministicAcrossJobs(t *testing.T) {
	withFakeArena(t)
	run := func(jobs int) []byte {
		rep, err := RunArena(ArenaOptions{Benches: []string{"body", "can", "botss"}, Jobs: jobs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("arena report differs across job counts")
	}
}

func TestArenaUnknownProtocol(t *testing.T) {
	withFakeArena(t)
	_, err := RunArena(ArenaOptions{Protocols: []string{"bogus"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("err = %v", err)
	}
}

func TestHistSummaryMerge(t *testing.T) {
	var a, b obs.LogHist
	a.Observe(10)
	a.Observe(100)
	b.Observe(1000)
	a.Merge(&b)
	s := SummarizeHist(&a)
	if s.Count != 3 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if want := (10 + 100 + 1000.0) / 3; s.Mean != want {
		t.Fatalf("mean = %g, want %g", s.Mean, want)
	}
}
