package repro

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandGoldens pins the byte output of the commands against golden
// files: the lock arena's JSON leaderboard, the fault sweep's degradation
// curve (one healthy and one watchdog-tripping drop rate, so failed runs
// are pinned as data), the Fig. 10/15/16 and Table 3 report with the
// Fig. 15 and Fig. 16 CSV files its -csv flag writes, the sweep CSV — as
// a plain grid, and as a -checkpoint-dir run followed by a resume over
// the same directory — ocorsim's compare report with its per-lock,
// histogram and timeline views and a single mcs run, traceq's in-process
// capture, and noctrace's table and CSV. Every command that takes -j runs
// at -j 1 and -j 4 against the same golden. The commands are built from
// this checkout and driven only through their flags, so the goldens hold
// across any refactor of the harness behind them; a deliberate output
// change is `go test -run CommandGoldens -update`.
//
// Flag values that would silently run something other than what they
// say — zero threads, seed 0, a zero, negative or non-finite scale, zero
// priority levels or seeds, a NaN drop rate — and flags a command does
// not take fail before the first simulation: exit status 1 (2 for an
// undefined flag), nothing on stdout, and the command's one-line error on
// stderr.
func TestCommandGoldens(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/benchjson", "./cmd/experiments", "./cmd/faultsweep", "./cmd/lockarena",
		"./cmd/noctrace", "./cmd/ocorsim", "./cmd/sweep", "./cmd/traceq")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building commands: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.Bytes())
		}
		return out
	}

	sweep := []string{"sweep", "-bench", "can", "-threads", "4,16", "-levels", "4,8", "-scale", "0.05"}
	ocorsim := []string{"ocorsim", "-bench", "can", "-threads", "16", "-scale", "0.05"}
	for _, g := range []struct {
		golden string
		args   []string
		csv    []string // files the command writes under -csv, each pinned as <command>-<file>
		jobs   bool     // the command takes -j
	}{
		{"lockarena.golden", []string{"lockarena", "-protocols", "mcs,cna", "-benches", "body,can", "-scale", "0.05", "-v=false"}, nil, true},
		{"faultsweep.golden", []string{"faultsweep", "-rates", "0,0.05", "-recovery=false", "-scale", "0.05", "-v=false"}, nil, true},
		{"experiments.golden", []string{"experiments", "-run", "fig10,fig15,fig16,table3", "-quick", "-scale", "0.02", "-v=false"},
			[]string{"fig15.csv", "fig16.csv"}, true},
		{"sweep.golden", sweep, nil, true},
		{"traceq.golden", []string{"traceq", "-bench", "can", "-threads", "16", "-scale", "0.05", "-seeds", "2", "-top", "3"}, nil, true},
		{"ocorsim.golden", append(ocorsim, "-locks", "-histo", "-trace"), nil, false},
		{"ocorsim-mcs.golden", append(ocorsim, "-compare=false", "-ocor=false", "-levels", "4", "-protocol", "mcs"), nil, false},
		{"noctrace.golden", []string{"noctrace", "-mesh", "4x4", "-cycles", "2000", "-priority", "-protocol", "reciprocating"}, nil, false},
		{"noctrace-csv.golden", []string{"noctrace", "-mesh", "4x4", "-cycles", "2000", "-csv", "-pattern", "hotspot"}, nil, false},
	} {
		name := strings.TrimSuffix(g.golden, ".golden")
		variants := [][]string{nil}
		if g.jobs {
			variants = [][]string{{"-j", "1"}, {"-j", "4"}}
		}
		for _, extra := range variants {
			sub := name
			if extra != nil {
				sub += "/j=" + extra[1]
			}
			t.Run(sub, func(t *testing.T) {
				args := append(append([]string{}, g.args...), extra...)
				var dir string
				if g.csv != nil {
					dir = t.TempDir()
					args = append(args, "-csv", dir)
				}
				checkGolden(t, g.golden, run(t, args...))
				for _, name := range g.csv {
					got, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, g.args[0]+"-"+name, got)
				}
			})
		}
	}
	for _, j := range []string{"1", "4"} {
		t.Run("sweep-checkpoint/j="+j, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			args := append(sweep, "-j", j, "-checkpoint-dir", dir)
			checkGolden(t, "sweep.golden", run(t, args...))
			checkGolden(t, "sweep.golden", run(t, args...)) // resume
		})
	}

	const undefined = "flag provided but not defined: -workers\n"
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string // exact for exit status 1; a prefix for exit status 2, whose usage text follows
	}{
		{"experiments-unknown-run", []string{"experiments", "-run", "fig10,fig99", "-quick", "-scale", "0.02"}, 1,
			"experiments: unknown -run name \"fig99\" (known: fig2, fig10, fig11, fig12, fig13, fig14, fig15, fig16, table3, all)\n"},

		{"experiments-seed-0", []string{"experiments", "-run", "fig10", "-scale", "0.02", "-v=false", "-seed", "0"}, 1,
			"experiments: invalid -seed 0: must be at least 1\n"},
		{"lockarena-seed-0", []string{"lockarena", "-protocols", "mcs", "-benches", "can", "-scale", "0.05", "-v=false", "-seed", "0"}, 1,
			"lockarena: invalid -seed 0: must be at least 1\n"},
		{"faultsweep-seed-0", []string{"faultsweep", "-rates", "0", "-scale", "0.05", "-v=false", "-seed", "0"}, 1,
			"faultsweep: invalid -seed 0: must be at least 1\n"},
		{"benchjson-seed-0", []string{"benchjson", "-threads", "4", "-scale", "0.02", "-o", os.DevNull, "-seed", "0"}, 1,
			"benchjson: invalid -seed 0: must be at least 1\n"},
		{"ocorsim-seed-0", append(ocorsim, "-seed", "0"), 1,
			"ocorsim: invalid -seed 0: must be at least 1\n"},
		{"traceq-seed-0", []string{"traceq", "-bench", "can", "-scale", "0.05", "-seed", "0"}, 1,
			"traceq: invalid -seed 0: must be at least 1\n"},
		{"noctrace-seed-0", []string{"noctrace", "-mesh", "4x4", "-cycles", "200", "-seed", "0"}, 1,
			"noctrace: invalid -seed 0: must be at least 1\n"},

		{"experiments-scale-0", []string{"experiments", "-run", "fig10", "-threads", "4", "-v=false", "-scale", "0"}, 1,
			"experiments: invalid -scale 0: must be positive and finite\n"},
		{"lockarena-scale-0", []string{"lockarena", "-protocols", "mcs", "-benches", "can", "-v=false", "-scale", "0"}, 1,
			"lockarena: invalid -scale 0: must be positive and finite\n"},
		{"faultsweep-scale-0", []string{"faultsweep", "-rates", "0", "-v=false", "-scale", "0"}, 1,
			"faultsweep: invalid -scale 0: must be positive and finite\n"},
		{"benchjson-scale-0", []string{"benchjson", "-threads", "4", "-o", os.DevNull, "-scale", "0"}, 1,
			"benchjson: invalid -scale 0: must be positive and finite\n"},
		{"ocorsim-scale-0", []string{"ocorsim", "-bench", "can", "-threads", "16", "-scale", "0"}, 1,
			"ocorsim: invalid -scale 0: must be positive and finite\n"},
		{"sweep-scale-0", []string{"sweep", "-bench", "can", "-threads", "16", "-scale", "0"}, 1,
			"sweep: invalid -scale 0: must be positive and finite\n"},
		{"traceq-scale-0", []string{"traceq", "-bench", "can", "-scale", "0"}, 1,
			"traceq: invalid -scale 0: must be positive and finite\n"},
		{"sweep-scale-negative", []string{"sweep", "-bench", "can", "-threads", "16", "-scale", "-1"}, 1,
			"sweep: invalid -scale -1: must be positive and finite\n"},
		{"ocorsim-scale-inf", []string{"ocorsim", "-bench", "can", "-threads", "16", "-scale", "-Inf"}, 1,
			"ocorsim: invalid -scale -Inf: must be positive and finite\n"},

		{"ocorsim-threads-0", []string{"ocorsim", "-bench", "can", "-threads", "0", "-scale", "0.05"}, 1,
			"ocorsim: invalid -threads 0: must be at least 1\n"},
		{"lockarena-threads-0", []string{"lockarena", "-protocols", "mcs", "-benches", "can", "-scale", "0.05", "-v=false", "-threads", "0"}, 1,
			"lockarena: invalid -threads 0: must be at least 1\n"},
		{"sweep-threads-0", []string{"sweep", "-bench", "can", "-threads", "0,64", "-scale", "0.02"}, 1,
			"sweep: invalid -threads 0: must be at least 1\n"},
		{"faultsweep-rate-nan", []string{"faultsweep", "-rates", "0,NaN", "-scale", "0.05", "-v=false"}, 1,
			"faultsweep: rate NaN outside [0, 1)\n"},
		{"sweep-levels-0", []string{"sweep", "-bench", "can", "-threads", "16", "-levels", "0,8", "-scale", "0.05"}, 1,
			"sweep: invalid -levels 0: must be at least 1\n"},
		{"ocorsim-levels-0", append(ocorsim, "-levels", "0"), 1,
			"ocorsim: invalid -levels 0: must be at least 1\n"},
		{"sweep-seeds-0", []string{"sweep", "-bench", "can", "-threads", "16", "-scale", "0.05", "-seeds", "0"}, 1,
			"sweep: invalid -seeds 0: must be at least 1\n"},
		{"traceq-seeds-0", []string{"traceq", "-bench", "can", "-scale", "0.05", "-seeds", "0"}, 1,
			"traceq: invalid -seeds 0: must be at least 1\n"},

		{"ocorsim-workers", append(ocorsim, "-workers", "2"), 2, undefined},
		{"experiments-workers", []string{"experiments", "-run", "fig10", "-scale", "0.02", "-v=false", "-workers", "2"}, 2, undefined},
		{"sweep-workers", []string{"sweep", "-bench", "can", "-threads", "4", "-scale", "0.05", "-workers", "2"}, 2, undefined},
		{"lockarena-workers", []string{"lockarena", "-protocols", "mcs", "-benches", "can", "-scale", "0.05", "-v=false", "-workers", "2"}, 2, undefined},
		{"faultsweep-workers", []string{"faultsweep", "-rates", "0", "-scale", "0.05", "-v=false", "-workers", "2"}, 2, undefined},
		{"benchjson-workers", []string{"benchjson", "-threads", "4", "-scale", "0.02", "-o", os.DevNull, "-workers", "2"}, 2, undefined},
		{"noctrace-workers", []string{"noctrace", "-mesh", "4x4", "-cycles", "200", "-workers", "2"}, 2, undefined},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, c.args[0]), c.args[1:]...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != c.code || len(out) != 0 {
				t.Fatalf("got %v with stdout %q; want exit status %d and no output", err, out, c.code)
			}
			if got := stderr.String(); (c.code == 1 && got != c.stderr) || !strings.HasPrefix(got, c.stderr) {
				t.Fatalf("stderr %q, want %q", got, c.stderr)
			}
		})
	}
}

// checkGolden compares got against testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run CommandGoldens -update ./` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s (rerun with -update if deliberate):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
