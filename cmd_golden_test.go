package repro

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCommandGoldens pins the byte output of the grid-running commands
// against golden files: the lock arena's JSON leaderboard, the fault
// sweep's degradation curve (one healthy and one watchdog-tripping drop
// rate, so failed runs are pinned as data), the Fig. 10/15/16 and
// Table 3 report (and the error an unknown -run name gets), and the sweep
// CSV — as a plain grid, and as a -checkpoint-dir run followed by a
// resume over the same directory.
// Every command runs at -j 1 and -j 4 against the same golden. The
// commands are built from this checkout and driven only through their
// flags, so the goldens hold across any refactor of the harness behind
// them; a deliberate output change is `go test -run CommandGoldens
// -update`.
func TestCommandGoldens(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/experiments", "./cmd/faultsweep", "./cmd/lockarena", "./cmd/sweep")
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
	for _, g := range []struct {
		golden string
		args   []string
	}{
		{"lockarena.golden", []string{"lockarena", "-protocols", "mcs,cna", "-benches", "body,can", "-scale", "0.05", "-v=false"}},
		{"faultsweep.golden", []string{"faultsweep", "-rates", "0,0.05", "-recovery=false", "-scale", "0.05", "-v=false"}},
		{"experiments.golden", []string{"experiments", "-run", "fig10,fig15,fig16,table3", "-quick", "-scale", "0.02", "-v=false"}},
		{"sweep.golden", sweep},
	} {
		for _, j := range []string{"1", "4"} {
			t.Run(g.args[0]+"/j="+j, func(t *testing.T) {
				checkGolden(t, g.golden, run(t, append(g.args, "-j", j)...))
			})
		}
	}
	// A typo in -run fails before the first simulation: exit status 1,
	// nothing on stdout, and the known names on stderr.
	t.Run("experiments-unknown-run", func(t *testing.T) {
		cmd := exec.Command(filepath.Join(bin, "experiments"), "-run", "fig10,fig99", "-quick", "-scale", "0.02")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(out) != 0 {
			t.Fatalf("got %v with stdout %q; want exit status 1 and no output", err, out)
		}
		want := "experiments: unknown -run name \"fig99\" (known: fig2, fig10, fig11, fig12, fig13, fig14, fig15, fig16, table3, all)\n"
		if stderr.String() != want {
			t.Fatalf("stderr %q, want %q", stderr.String(), want)
		}
	})
	for _, j := range []string{"1", "4"} {
		t.Run("sweep-checkpoint/j="+j, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			args := append(sweep, "-j", j, "-checkpoint-dir", dir)
			checkGolden(t, "sweep.golden", run(t, args...))
			checkGolden(t, "sweep.golden", run(t, args...)) // resume
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
