package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden schema file")

// sampleReport builds a report with every optional block populated and
// every slice non-empty, so the marshaled JSON exposes the full key set
// (omitempty fields included).
func sampleReport() report {
	hist := experiments.HistSummary{Count: 1, Mean: 1, P50: 1, P95: 1, P99: 1, Max: 1}
	cellSample := experiments.ArenaCell{
		Bench: "body", ROIFinish: 1, TotalBT: 1, TotalCOH: 1, Acquisitions: 1,
		SpinFraction: 0.5, Handoffs: 1, MaxQueueDepth: 1, BT: hist, COH: hist,
	}
	return report{
		GoVersion: "go0.0", GOOS: "linux", GOARCH: "amd64", CPUs: 1,
		Threads: 64, Scale: 0.25, Quick: true, Workers: 1, Caveat: "sample",
		Records: []record{{Name: "Fig2", Iterations: 1, WallSeconds: 1, AllocsPerOp: 1, BytesPerOp: 1}},
		Tick: []tickRecord{{
			Mesh: "8x8", Workers: 1, Iterations: 1, NsPerOp: 1,
			AllocsPerOp: 1, BaselineNs: 1, SpeedupVs: 1,
		}},
		MeshScaling: []meshScalingRecord{{
			Mesh: "8x8", Iterations: 1, FastForwardNs: 1,
			AllocsPerOp: 1, BaselineNs: 1, SpeedupVs: 1,
		}},
		Scaling: []scalingPoint{{Workers: 1, WallSeconds: 1, SpeedupVs1: 1}},
		Arena: &arenaBlock{
			WallSeconds: 1,
			Report: experiments.ArenaReport{
				Threads: 16, Seed: 1, Scale: 0.1,
				Benches: []string{"body"}, Protocols: []string{"ticket"},
				Leaderboard: []experiments.ArenaEntry{{
					Rank: 1, Protocol: "ticket", OCOR: true, TotalROI: 1,
					TotalBT: 1, TotalCOH: 1, Handoffs: 1, MaxQueueDepth: 1,
					BT: hist, COH: hist, Cells: []experiments.ArenaCell{cellSample},
				}},
			},
		},
		Checkpoint: &checkpointSweepBlock{
			GridCells: 10, UniqueCells: 6, PrefixesBuilt: 1,
			PrefixCyclesSkipped: 1, WarmupFraction: 0.01,
			ColdCellsPerSec: 1, WarmCellsPerSec: 1.5, Speedup: 1.5,
			SnapshotBytes: 1, SnapshotNs: 1, RestoreNs: 1, RoundTripAllocs: 1,
		},
	}
}

// keyPaths walks a decoded JSON value and returns every object key as a
// dotted path; array elements collapse to []. The sorted path list is the
// report's schema: field renames, removals and type-shape changes all
// show up as a diff against the golden file.
func keyPaths(prefix string, v any, out map[string]struct{}) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = struct{}{}
			keyPaths(p, child, out)
		}
	case []any:
		for _, child := range t {
			keyPaths(prefix+"[]", child, out)
		}
	}
}

// TestReportSchemaGolden pins the benchjson JSON schema to a committed
// golden file. BENCH_*.json consumers (dashboards, the Makefile's awk
// extractions, cross-commit diffs) key on these names; run with -update
// after a deliberate schema change.
func TestReportSchemaGolden(t *testing.T) {
	data, err := json.Marshal(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	set := map[string]struct{}{}
	keyPaths("", decoded, set)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"

	golden := filepath.Join("testdata", "schema.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("report schema changed; if deliberate, rerun with -update and note the change in EXPERIMENTS.md.\n%s",
			schemaDiff(string(want), got))
	}
}

// schemaDiff renders the set difference of two newline-separated path
// lists.
func schemaDiff(want, got string) string {
	w := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		w[l] = true
	}
	g := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		g[l] = true
	}
	var sb strings.Builder
	for l := range g {
		if !w[l] {
			fmt.Fprintf(&sb, "+ %s\n", l)
		}
	}
	for l := range w {
		if !g[l] {
			fmt.Fprintf(&sb, "- %s\n", l)
		}
	}
	return sb.String()
}
