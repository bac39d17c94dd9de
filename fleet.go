package repro

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// This file is the platform side of the sweep fleet: the cell runner a
// fleet worker (in-process or cmd/sweepd) executes leased cells with,
// and the spool-directory prefix cache that makes PR 9's prefix-*.ckpt
// snapshots the cross-process warm-start hand-off format.

// CellRunnerOptions configures CellRunner.
type CellRunnerOptions = experiments.RunOptions

// CellRunner returns a fleet runner backed by the full platform: the
// platform's cell runner (validation, single-flight warm start, the
// wall-clock guard), handing the fleet only each cell's results. A fault
// cell's recorded failure becomes the run's error, so the fleet retries
// or quarantines it instead of journaling zeroed results.
func CellRunner(o CellRunnerOptions) func(c experiments.Cell) (metrics.Results, error) {
	run := cellRunner(o)
	return func(c experiments.Cell) (metrics.Results, error) {
		r, err := run(c)
		if err == nil && r.Failure != "" {
			err = errors.New(r.Failure)
		}
		return r.Results, err
	}
}

// DirPrefixCache persists warm-start prefix snapshots in dir as
// prefix-<hash>-<cycle>.ckpt files (the cmd/sweep checkpoint-directory
// format, shared here so fleet coordinators and sweepd workers hand
// shards off through the same files). Loads are best-effort: any
// malformed file reads as a miss.
func DirPrefixCache(dir string) experiments.PrefixCache { return prefixDir{dir: dir} }

type prefixDir struct{ dir string }

func (d prefixDir) glob(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, fmt.Sprintf("prefix-%x-*.ckpt", sum[:8]))
}

func (d prefixDir) Load(key string) (any, uint64, bool) {
	matches, _ := filepath.Glob(d.glob(key))
	if len(matches) == 0 {
		return nil, 0, false
	}
	name := filepath.Base(matches[0])
	var cycle uint64
	if _, err := fmt.Sscanf(name[strings.LastIndexByte(name, '-')+1:], "%d.ckpt", &cycle); err != nil {
		return nil, 0, false
	}
	snap, err := checkpoint.ReadFile(matches[0])
	if err != nil {
		return nil, 0, false
	}
	return snap, cycle, true
}

func (d prefixDir) Store(key string, prefix any, cycle uint64) {
	snap, ok := prefix.(*checkpoint.Snapshot)
	if !ok {
		return
	}
	sum := sha256.Sum256([]byte(key))
	path := filepath.Join(d.dir, fmt.Sprintf("prefix-%x-%d.ckpt", sum[:8], cycle))
	_ = snap.WriteFile(path)
}
