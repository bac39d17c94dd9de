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
)

var update = flag.Bool("update", false, "rewrite the golden schema file")

// sampleReport builds a report with one record, so the marshaled JSON
// exposes the full key set.
func sampleReport() report {
	return report{
		GoVersion: "go0.0", GOOS: "linux", GOARCH: "amd64", CPUs: 1,
		Threads: 64, Scale: 0.25, Quick: true,
		Records: []record{{Name: "Fig2", Iterations: 1, WallSeconds: 1, AllocsPerOp: 1, BytesPerOp: 1}},
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
