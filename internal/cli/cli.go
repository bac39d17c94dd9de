// Package cli declares the run flags the commands share — -bench,
// -threads, -seed, -scale, -protocol and -j — with each command's own
// defaults, and validates them in one place, so one flag value means
// one run in every command. It also owns the commands' "<command>: <error>"
// exit, their comma-list parser and their -o JSON writer.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro"
	"repro/internal/workload"
)

// Flag selects one of the shared run flags.
type Flag uint

// The shared run flags.
const (
	Bench    Flag = 1 << iota // -bench: catalog benchmark name
	Threads                   // -threads: thread/core count
	Seed                      // -seed: simulation seed
	Scale                     // -scale: iteration scale factor
	Protocol                  // -protocol: kernel lock protocol
	Jobs                      // -j: concurrent simulations
)

// Run is a command's run flags. Register fills the fields of the flags a
// command takes from the command line, and leaves the others at their
// defaults.
type Run struct {
	Bench    string
	Threads  int
	Seed     uint64
	Scale    float64
	Protocol string
	Jobs     int

	// Profile is the -bench catalog profile scaled by -scale, set by
	// Parse for a command that takes -bench.
	Profile workload.Profile

	name  string
	flags Flag
}

// Register declares the flags in set on the command line of the command
// called name, with def's fields as their defaults. Call Parse after
// declaring the command's own flags.
func Register(name string, set Flag, def Run) *Run {
	r := &def
	r.name, r.flags = name, set
	if set&Bench != 0 {
		flag.StringVar(&r.Bench, "bench", r.Bench, "benchmark name (see ocorsim -list)")
	}
	if set&Threads != 0 {
		flag.IntVar(&r.Threads, "threads", r.Threads, "thread/core count")
	}
	if set&Seed != 0 {
		flag.Uint64Var(&r.Seed, "seed", r.Seed, "simulation seed (at least 1)")
	}
	if set&Scale != 0 {
		flag.Float64Var(&r.Scale, "scale", r.Scale, "iteration scale factor (positive; smaller = faster)")
	}
	if set&Protocol != 0 {
		flag.StringVar(&r.Protocol, "protocol", r.Protocol, "kernel lock protocol (empty = default queue spinlock; see internal/kernel/protocol)")
	}
	if set&Jobs != 0 {
		flag.IntVar(&r.Jobs, "j", r.Jobs, "max concurrent simulations (0 = GOMAXPROCS)")
	}
	return r
}

// Parse parses the command line and validates the run flags, exiting
// through Fatal on a bad value.
func (r *Run) Parse() {
	flag.Parse()
	if err := r.validate(); err != nil {
		r.Fatal(err)
	}
}

// validate rejects a flag value that would silently run something other
// than it says: an unknown benchmark, a thread count or protocol the
// platform refuses, zero threads (which the experiment options and the
// platform each replace with a default of their own), seed 0 (which the
// experiment options replace with 1) and a scale that is not positive and
// finite (0 means full length to the experiment options and one iteration
// per thread to a profile).
func (r *Run) validate() error {
	if r.flags&Seed != 0 && r.Seed == 0 {
		return fmt.Errorf("invalid -seed %d: must be at least 1", r.Seed)
	}
	if r.flags&Scale != 0 && (r.Scale <= 0 || math.IsNaN(r.Scale) || math.IsInf(r.Scale, 0)) {
		return fmt.Errorf("invalid -scale %v: must be positive and finite", r.Scale)
	}
	if r.flags&Bench != 0 {
		p, err := repro.Benchmark(r.Bench)
		if err != nil {
			return err
		}
		r.Profile = p.Scale(r.Scale)
	}
	if r.flags&Threads != 0 {
		if err := Count("threads", r.Threads); err != nil {
			return err
		}
	}
	return (&repro.Config{Threads: r.Threads, Protocol: r.Protocol}).Validate()
}

// Check validates a run of the command at the given thread count and
// priority levels under its -protocol, for a command with a -levels flag
// of its own. Both start at 1: the platform reads 0 levels as its default,
// 8, and 0 threads as one per node.
func (r *Run) Check(threads, levels int) error {
	if err := Count("threads", threads); err != nil {
		return err
	}
	if err := Count("levels", levels); err != nil {
		return err
	}
	return (&repro.Config{Threads: threads, PriorityLevels: levels, Protocol: r.Protocol}).Validate()
}

// Fatal prints "<command>: err" on stderr and exits with status 1.
func (r *Run) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
	os.Exit(1)
}

// Count checks that the value n of the count flag -name is at least 1.
func Count(name string, n int) error {
	if n < 1 {
		return fmt.Errorf("invalid -%s %d: must be at least 1", name, n)
	}
	return nil
}

// List splits a comma-separated flag value into its trimmed, non-empty
// items.
func List(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// WriteJSON writes v as indented JSON to the file path, or to stdout when
// path is empty.
func WriteJSON(path string, v any) (err error) {
	out := os.Stdout
	if path != "" {
		if out, err = os.Create(path); err != nil {
			return err
		}
		defer func() {
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}()
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
