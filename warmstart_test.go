package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
)

// TestWarmGridMatchesCold is the warm-start fork's end-to-end guarantee:
// a sweep grid run with prefix forking (one shared pre-first-lock prefix
// per protocol-independent configuration) produces results byte-identical
// to the same grid run cold, with every cell simulated from cycle zero.
// The grid deliberately contains duplicate cells (the baseline rows of a
// priority-level sweep, which don't read the level) to exercise
// deduplication.
func TestWarmGridMatchesCold(t *testing.T) {
	p := detProfile()
	var cells []experiments.Cell
	for _, lv := range []int{4, 8, 16} {
		// Baseline half: levels unused, so all three cells are identical.
		cells = append(cells, experiments.Cell{Profile: p, Threads: 16, Seed: 7})
		for _, proto := range []string{"", "mcs", "cna"} {
			cells = append(cells, experiments.Cell{
				Profile: p, Threads: 16, OCOR: true, Levels: lv, Seed: 7, Protocol: proto,
			})
		}
	}

	cold, coldStats, err := experiments.RunGrid(cells, experiments.GridOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := experiments.RunGrid(cells, experiments.GridOptions{Warm: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Unique != warmStats.Unique {
		t.Fatalf("unique counts differ: cold %d, warm %d", coldStats.Unique, warmStats.Unique)
	}
	// 3 identical baseline cells dedupe to 1; the 9 OCOR cells are distinct.
	if want := 10; warmStats.Unique != want {
		t.Fatalf("unique cells = %d, want %d", warmStats.Unique, want)
	}
	if warmStats.Forked != warmStats.Unique || warmStats.PrefixCycles == 0 {
		t.Fatalf("warm grid did not fork every unique cell: %+v", warmStats)
	}
	// One prefix per (OCOR) half: baseline and OCOR cells differ only there.
	if want := 2; warmStats.PrefixesBuilt != want {
		t.Fatalf("built %d prefixes, want %d: %+v", warmStats.PrefixesBuilt, want, warmStats)
	}
	for i := range cells {
		cj, _ := json.Marshal(cold[i].Results)
		wj, _ := json.Marshal(warm[i].Results)
		if !bytes.Equal(cj, wj) {
			t.Fatalf("cell %d (%+v): warm-started result diverged:\ncold: %s\nwarm: %s", i, cells[i], cj, wj)
		}
	}
}

// TestWarmGridLoadsPrefixCache runs one warm grid twice over a
// DirPrefixCache. The second run has a fresh runner, so every fork must
// come from a snapshot loaded off disk and restored: every unique cell
// forks again over the same prefix cycles, the results match, and the
// prefix files are left untouched (loaded, not rebuilt and re-stored).
func TestWarmGridLoadsPrefixCache(t *testing.T) {
	p := detProfile()
	cells := []experiments.Cell{
		{Profile: p, Threads: 16, Seed: 7},
		{Profile: p, Threads: 16, OCOR: true, Levels: 8, Seed: 7},
		{Profile: p, Threads: 16, OCOR: true, Levels: 8, Seed: 7, Protocol: "mcs"},
	}
	dir := t.TempDir()
	opts := experiments.GridOptions{Warm: true, Cache: DirPrefixCache(dir)}
	first, st1, err := experiments.RunGrid(cells, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Forked != st1.Unique || st1.PrefixesBuilt != 2 {
		t.Fatalf("first run stats %+v, want every unique cell forked from 2 prefixes", st1)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "prefix-*.ckpt"))
	if len(files) != 2 {
		t.Fatalf("first run stored %d prefix snapshots, want 2", len(files))
	}
	old := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, f := range files {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}

	second, st2, err := experiments.RunGrid(cells, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Forked != st2.Unique || st2.PrefixCycles != st1.PrefixCycles || st2.PrefixesBuilt != st1.PrefixesBuilt {
		t.Fatalf("cached run stats %+v, want every unique cell forked as in %+v", st2, st1)
	}
	for _, f := range files {
		if fi, err := os.Stat(f); err != nil || !fi.ModTime().Equal(old) {
			t.Fatalf("prefix snapshot %s was rebuilt, not loaded (err %v)", f, err)
		}
	}
	for i := range cells {
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("cell %d: cache-loaded fork diverged:\nfirst:  %s\nsecond: %s", i, a, b)
		}
	}
}

// TestWarmGridReplacesOldPrefix is the prefix cache's version-skew
// check: a prefix file that an older build wrote in format version 1
// loads as a miss, so the runner rebuilds the prefix, Store replaces the
// file in place (the prefix cycle, and so the file name, is unchanged)
// and the cell's results equal a cold run's.
func TestWarmGridReplacesOldPrefix(t *testing.T) {
	c := experiments.Cell{Profile: detProfile(), Threads: 16, OCOR: true, Levels: 8, Seed: 7}
	cold, _, err := experiments.RunGrid([]experiments.Cell{c}, experiments.GridOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, cycle, err := BuildPrefix(Config{Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR, Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	// The version is checked before any decoding, so the current payload
	// under a version-1 header stands in for an older build's file.
	dir := t.TempDir()
	cache := DirPrefixCache(dir)
	cache.Store(c.PrefixKey(), &checkpoint.Snapshot{Version: 1, Data: snap.Data}, cycle)
	files, _ := filepath.Glob(filepath.Join(dir, "prefix-*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("stored %d prefix files, want 1", len(files))
	}
	if _, err := checkpoint.ReadFile(files[0]); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("reading the version-1 file: got %v, want checkpoint.ErrVersion", err)
	}
	if _, _, ok := cache.Load(c.PrefixKey()); ok {
		t.Fatal("a version-1 prefix file loaded as a hit")
	}

	warm, st, err := experiments.RunGrid([]experiments.Cell{c}, experiments.GridOptions{Warm: true, Cache: cache}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Forked != 1 || warm[0].PrefixCycle != cycle {
		t.Fatalf("cell did not fork from a rebuilt prefix at cycle %d: stats %+v, prefix cycle %d", cycle, st, warm[0].PrefixCycle)
	}
	if again, _ := filepath.Glob(filepath.Join(dir, "prefix-*.ckpt")); len(again) != 1 || again[0] != files[0] {
		t.Fatalf("prefix files after the rebuild: %v, want %s replaced in place", again, files[0])
	}
	got, err := checkpoint.ReadFile(files[0])
	if err != nil || got.Version != checkpoint.Version || !bytes.Equal(got.Data, snap.Data) {
		t.Fatalf("replaced prefix file: err %v; want version %d with the rebuilt prefix", err, checkpoint.Version)
	}
	cj, _ := json.Marshal(cold[0].Results)
	wj, _ := json.Marshal(warm[0].Results)
	if !bytes.Equal(cj, wj) {
		t.Fatalf("fork from the rebuilt prefix diverged:\ncold: %s\nwarm: %s", cj, wj)
	}
}

// TestWarmGridEmitOrder asserts the streaming emitter delivers every cell
// exactly once, in cell order, and that duplicate cells receive their
// representative's result.
func TestWarmGridEmitOrder(t *testing.T) {
	p := detProfile()
	cells := []experiments.Cell{
		{Profile: p, Threads: 16, Seed: 7},
		{Profile: p, Threads: 16, OCOR: true, Levels: 8, Seed: 7},
		{Profile: p, Threads: 16, Seed: 7}, // duplicate of cell 0
		{Profile: p, Threads: 16, OCOR: true, Levels: 4, Seed: 7},
	}
	var order []int
	var emitted []experiments.CellResult
	res, _, err := experiments.RunGrid(cells, experiments.GridOptions{Jobs: 4, Warm: true},
		func(i int, r experiments.CellResult) { order = append(order, i); emitted = append(emitted, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(cells) {
		t.Fatalf("emitted %d cells, want %d", len(order), len(cells))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("emit order %v, want sequential", order)
		}
	}
	for i := range cells {
		ej, _ := json.Marshal(emitted[i])
		rj, _ := json.Marshal(res[i])
		if !bytes.Equal(ej, rj) {
			t.Fatalf("cell %d: emitted result differs from returned result", i)
		}
	}
	c0, _ := json.Marshal(res[0])
	c2, _ := json.Marshal(res[2])
	if !bytes.Equal(c0, c2) {
		t.Fatal("duplicate cells returned different results")
	}
}
