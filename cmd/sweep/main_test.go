package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/workload"
)

func testProfile() workload.Profile {
	return workload.Profile{
		Name: "swtest", ComputeGap: 600, GapMemOps: 3, WorkingSet: 64,
		SharedFrac: 0.15, GlobalBlocks: 32, SharedWriteFrac: 0.25,
		Locks: 2, CSLen: 50, CSMemOps: 2, Iterations: 5,
	}
}

func testSweepConfig(dir string) sweepConfig {
	return sweepConfig{
		prof: testProfile(),
		grid: []cell{
			{threads: 16, levels: 4, seed: 1},
			{threads: 16, levels: 8, seed: 1},
		},
		scale: 1, warm: true, ckptDir: dir,
	}
}

// TestSweepResume runs the same checkpointed grid twice: the second run
// must simulate nothing, restore every cell from the checkpoint
// directory's fleet spool, and still produce byte-identical CSV output.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	sc := testSweepConfig(dir)

	var first bytes.Buffer
	stats, err := sweepFleet(sc, &first)
	if err != nil {
		t.Fatal(err)
	}
	// 4 cells, but the two baselines are identical (levels unused).
	if stats.Unique != 3 || stats.Completed != 3 || stats.Restored != 0 {
		t.Fatalf("fresh run stats %+v, want 3 unique cells completed fresh", stats)
	}
	// One prefix per OCOR half: OCOR selects the router arbitration
	// algorithm, so it stays in the prefix key.
	if m, _ := filepath.Glob(filepath.Join(dir, "prefix-*.ckpt")); len(m) != 2 {
		t.Fatalf("fresh run left %d prefix snapshots, want 2", len(m))
	}

	var second bytes.Buffer
	stats, err = sweepFleet(sc, &second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restored != 3 || stats.Leases != 0 {
		t.Fatalf("resumed run simulated work: %+v", stats)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("resumed CSV differs from fresh CSV:\nfresh:\n%s\nresumed:\n%s", &first, &second)
	}
}

// TestSweepPartialResume hard-kills a checkpointed grid after two
// journaled results, then reruns it: the journaled cells are restored, only
// the last simulates — loading the prefix snapshots the killed run left in
// the directory instead of rebuilding them — and the CSV matches a cold
// run's bytes. TestWarmGridLoadsPrefixCache checks that such loaded
// snapshots actually fork.
func TestSweepPartialResume(t *testing.T) {
	dir := t.TempDir()
	sc := testSweepConfig(dir)
	sc.jobs = 1
	sc.fleetTune = func(fc *fleet.Config) { fc.Chaos = &fleet.ChaosConfig{KillAfterResults: 2} }
	if _, err := sweepFleet(sc, io.Discard); err != fleet.ErrKilled {
		t.Fatalf("killed run returned %v, want fleet.ErrKilled", err)
	}
	// The killed run journaled the baseline and the first OCOR cell, so
	// both prefixes are on disk and the last OCOR cell needs the OCOR one.
	// Backdate them: the resume must load rather than rebuild and re-store.
	left, _ := filepath.Glob(filepath.Join(dir, "prefix-*.ckpt"))
	if len(left) != 2 {
		t.Fatalf("killed run left %d prefix snapshots, want 2", len(left))
	}
	old := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, f := range left {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}

	sc.fleetTune = nil
	var out bytes.Buffer
	stats, err := sweepFleet(sc, &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restored != 2 || stats.Completed != 3 || stats.Leases != 1 {
		t.Fatalf("partial resume stats %+v, want 2 restored and 1 leased of 3", stats)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "prefix-*.ckpt")); len(m) != 2 {
		t.Fatalf("resume left %d prefix snapshots, want 2", len(m))
	}
	for _, f := range left {
		if fi, err := os.Stat(f); err != nil || !fi.ModTime().Equal(old) {
			t.Fatalf("resume rebuilt prefix snapshot %s instead of loading it (err %v)", f, err)
		}
	}

	// A cold in-memory run must agree with the resumed CSV.
	sc.ckptDir, sc.warm = "", false
	var cold bytes.Buffer
	if _, err := sweepRun(sc, &cold); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), out.Bytes()) {
		t.Fatalf("resumed CSV differs from cold CSV:\ncold:\n%s\nresumed:\n%s", &cold, &out)
	}
}

// TestSweepCheckpointDirIsSpool pins -checkpoint-dir as a fleet spool:
// with -fleet it is where results persist, and naming a different -spool
// beside it is a flag error raised before any output.
func TestSweepCheckpointDirIsSpool(t *testing.T) {
	dir := t.TempDir()
	sc := testSweepConfig(dir)
	sc.fleetWorkers = 2
	if err := sc.check(); err != nil {
		t.Fatal(err)
	}
	if _, err := sweepFleet(sc, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "results.jsonl")); err != nil {
		t.Fatalf("-fleet ignored -checkpoint-dir: %v", err)
	}

	sc.spool = t.TempDir()
	if err := sc.check(); err == nil || !strings.Contains(err.Error(), "different spools") {
		t.Fatalf("conflicting -spool accepted: %v", err)
	}
	sc.spool = dir + "/"
	if err := sc.check(); err != nil {
		t.Fatalf("-spool naming the checkpoint directory rejected: %v", err)
	}
}

// TestSweepFleetMatchesGrid runs the same grid in classic grid mode and
// as a supervised fleet: the CSV byte streams must be identical, and a
// second fleet run over the same spool must restore every cell and still
// emit the identical bytes.
func TestSweepFleetMatchesGrid(t *testing.T) {
	sc := testSweepConfig("")

	var grid bytes.Buffer
	if _, err := sweepRun(sc, &grid); err != nil {
		t.Fatal(err)
	}

	sc.fleetWorkers = 4
	sc.spool = t.TempDir()
	sc.fleetTune = func(fc *fleet.Config) {
		fc.LeaseTTL = 100 * time.Millisecond
		fc.Poll = 10 * time.Millisecond
	}

	var first bytes.Buffer
	stats, err := sweepFleet(sc, &first)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 3 || stats.Restored != 0 {
		t.Fatalf("fleet run stats %+v, want 3 unique cells completed fresh", stats)
	}
	if !bytes.Equal(grid.Bytes(), first.Bytes()) {
		t.Fatalf("fleet CSV differs from grid CSV:\ngrid:\n%s\nfleet:\n%s", &grid, &first)
	}

	var second bytes.Buffer
	stats, err = sweepFleet(sc, &second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restored != 3 || stats.Leases != 0 {
		t.Fatalf("fleet rerun stats %+v, want everything restored without leasing", stats)
	}
	if !bytes.Equal(grid.Bytes(), second.Bytes()) {
		t.Fatalf("resumed fleet CSV differs from grid CSV:\ngrid:\n%s\nresumed:\n%s", &grid, &second)
	}
}

// TestSweepFleetDrained pre-closes stop: the fleet leases nothing and
// sweepFleet reports the drain so main can mark the output truncated.
func TestSweepFleetDrained(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	sc := testSweepConfig("")
	sc.fleetWorkers = 2
	sc.stop = stop

	var out bytes.Buffer
	_, err := sweepFleet(sc, &out)
	if err != fleet.ErrDrained {
		t.Fatalf("drained fleet sweep returned %v, want fleet.ErrDrained", err)
	}
	if got := strings.Count(out.String(), "\n"); got != 1 {
		t.Fatalf("drained fleet sweep emitted %d lines, want header only", got)
	}
}

// TestSweepInterrupted runs a checkpointed grid with a pre-closed stop
// channel: the fleet drains before leasing anything, so no rows are
// produced beyond the header.
func TestSweepInterrupted(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	sc := testSweepConfig(t.TempDir())
	sc.stop = stop

	var out bytes.Buffer
	if _, err := sweepFleet(sc, &out); err != fleet.ErrDrained {
		t.Fatalf("interrupted sweep returned %v, want fleet.ErrDrained", err)
	}
	if got := strings.Count(out.String(), "\n"); got != 1 {
		t.Fatalf("interrupted sweep emitted %d lines, want header only", got)
	}
}
