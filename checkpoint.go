package repro

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/noc"
)

// Snapshot serializes the complete platform state at the current cycle
// into a versioned checkpoint. It must be taken at a clean inter-cycle
// boundary — i.e. between Run/RunTo calls, never from inside a callback.
//
// The invariant the checkpoint test matrix holds this to: restoring the
// snapshot into a freshly built platform (same configuration) and running
// to completion yields byte-identical Results to the uninterrupted run,
// for both engine modes, every worker count and every lock protocol.
//
// Observation sinks (obs recorders, trace timelines, watchdogs) are not
// part of the checkpoint: they are read-only observers, so the restored
// simulation is unaffected — but a recorder attached to a restored run
// only sees events from the restore point on.
func (s *System) Snapshot() (*checkpoint.Snapshot, error) {
	w := checkpoint.NewWriter()
	hasKernel := !s.Kernel.Inert()
	hasFaults := s.Faults != nil

	w.Begin("platform")
	w.String(s.Cfg.Benchmark.Name)
	w.Int(s.Cfg.Threads)
	w.Int(s.Net.Cfg.Width)
	w.Int(s.Net.Cfg.Height)
	w.Bool(s.Cfg.OCOR)
	w.Int(s.Cfg.PriorityLevels)
	w.U64(s.Cfg.Seed)
	w.Bool(hasKernel)
	w.Bool(hasFaults)
	w.Bool(s.started)
	w.End()

	now, ticked, skipped := s.Engine.SaveClock()
	w.Begin("engine")
	w.U64(now)
	w.U64(ticked)
	w.U64(skipped)
	w.U64s(s.Engine.SaveWakes())
	w.End()

	if err := s.Net.SnapshotTo(w, s.savePayload); err != nil {
		return nil, err
	}
	if hasKernel {
		if err := s.Kernel.SnapshotTo(w); err != nil {
			return nil, err
		}
	}
	if err := s.Mem.SnapshotTo(w); err != nil {
		return nil, err
	}
	if err := s.CPU.SnapshotTo(w); err != nil {
		return nil, err
	}
	s.Collector.SnapshotTo(w)
	if hasFaults {
		s.Faults.SnapshotTo(w)
	}
	return w.Snapshot(), nil
}

// Restore builds a fresh platform from cfg and overwrites its dynamic
// state with snap, returning a system ready to continue from the
// snapshot's cycle via Run or RunTo.
//
// The configuration must match the one the snapshot was taken under, with
// one deliberate exception: a snapshot whose lock kernel was still inert
// (taken before any thread's first lock acquisition — see
// kernel.System.Inert) restores into any Protocol / PriorityLevels
// combination. That is the warm-start fork: one shared prefix simulation
// seeds every protocol variant of a sweep grid.
func Restore(cfg Config, snap *checkpoint.Snapshot) (*System, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restore(snap); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *System) restore(snap *checkpoint.Snapshot) error {
	if snap.Version != checkpoint.Version {
		return fmt.Errorf("repro: %w: snapshot version %d, this build reads %d", checkpoint.ErrVersion, snap.Version, checkpoint.Version)
	}
	r := checkpoint.NewReader(snap)
	r.Begin("platform")
	bench := r.String()
	threads := r.Int()
	width := r.Int()
	height := r.Int()
	ocor := r.Bool()
	levels := r.Int()
	seed := r.U64()
	hasKernel := r.Bool()
	hasFaults := r.Bool()
	started := r.Bool()
	r.End()
	if err := r.Err(); err != nil {
		return err
	}
	if bench != s.Cfg.Benchmark.Name || threads != s.Cfg.Threads ||
		width != s.Net.Cfg.Width || height != s.Net.Cfg.Height ||
		ocor != s.Cfg.OCOR || seed != s.Cfg.Seed {
		return fmt.Errorf("repro: snapshot config (%s t=%d %dx%d ocor=%v seed=%d) does not match platform (%s t=%d %dx%d ocor=%v seed=%d)",
			bench, threads, width, height, ocor, seed,
			s.Cfg.Benchmark.Name, s.Cfg.Threads, s.Net.Cfg.Width, s.Net.Cfg.Height,
			s.Cfg.OCOR, s.Cfg.Seed)
	}
	if hasKernel && levels != s.Cfg.PriorityLevels {
		return fmt.Errorf("repro: snapshot has %d priority levels, platform %d (only inert-kernel snapshots may switch)",
			levels, s.Cfg.PriorityLevels)
	}
	if hasFaults != (s.Faults != nil) {
		return fmt.Errorf("repro: snapshot fault injection %v, platform %v", hasFaults, s.Faults != nil)
	}

	r.Begin("engine")
	now := r.U64()
	ticked := r.U64()
	skipped := r.U64()
	wakes := r.U64s()
	r.End()
	if err := r.Err(); err != nil {
		return err
	}
	s.Engine.RestoreClock(now, ticked, skipped)
	if err := s.Engine.RestoreWakes(wakes); err != nil {
		return err
	}

	if err := s.Net.RestoreFrom(r, s.loadPayload); err != nil {
		return err
	}
	if hasKernel {
		if err := s.Kernel.RestoreFrom(r); err != nil {
			return err
		}
	}
	if err := s.Mem.RestoreFrom(r, s.CPU.StepContinuation); err != nil {
		return err
	}
	if err := s.CPU.RestoreFrom(r); err != nil {
		return err
	}
	if err := s.Collector.RestoreFrom(r); err != nil {
		return err
	}
	if hasFaults {
		if err := s.Faults.RestoreFrom(r); err != nil {
			return err
		}
	}
	s.started = started
	return nil
}

// BuildPrefix simulates cfg up to the last checkpointable cycle before
// any thread's first lock acquisition and returns that snapshot plus the
// cycle it covers. Because the kernel is still inert at the snapshot
// point, the returned prefix restores into any Protocol / PriorityLevels
// value (cfg's own settings for those two fields are irrelevant): one
// prefix simulation warm-starts every protocol variant of a sweep grid.
//
// The advance is chunked with doubling strides, snapshotting at every
// chunk boundary that is still pre-first-lock, so the prefix lands within
// one stride of the first acquisition without ever needing to roll back.
func BuildPrefix(cfg Config) (*checkpoint.Snapshot, uint64, error) {
	sys, err := New(cfg)
	if err != nil {
		return nil, 0, err
	}
	var snap *checkpoint.Snapshot
	var at uint64
	step := uint64(64)
	for {
		s, err := sys.Snapshot()
		if err != nil {
			return nil, 0, err
		}
		snap, at = s, sys.Engine.Now()
		if sys.CPU.AllDone() {
			// Lock-free workload: the prefix is the whole run.
			return snap, at, nil
		}
		if _, err := sys.RunTo(sys.Engine.Now() + step); err != nil {
			return nil, 0, err
		}
		if !sys.Kernel.Inert() {
			return snap, at, nil
		}
		if step < 8192 {
			step *= 2
		}
	}
}

// ForkRun restores a prefix snapshot (from BuildPrefix, or any platform
// Snapshot compatible with cfg) into a fresh platform and runs the
// remainder to completion.
func ForkRun(cfg Config, snap *checkpoint.Snapshot) (metrics.Results, error) {
	sys, err := Restore(cfg, snap)
	if err != nil {
		return metrics.Results{}, err
	}
	return sys.Run()
}

// savePayload is the NoC snapshot's payload hook: it dispatches each
// in-flight packet's typed payload reference to the owning subsystem's
// message serializer.
func (s *System) savePayload(w *checkpoint.Writer, kind noc.PayloadKind, ref uint32) error {
	switch kind {
	case noc.PayloadKernel:
		s.Kernel.SaveMsg(w, ref)
	case noc.PayloadMem:
		s.Mem.SaveMsg(w, ref)
	default:
		return fmt.Errorf("repro: unknown payload kind %d", kind)
	}
	return nil
}

// loadPayload re-interns one serialized payload message into the owning
// subsystem's slab, returning the carrying packet's new PayloadRef.
func (s *System) loadPayload(r *checkpoint.Reader, kind noc.PayloadKind) (uint32, error) {
	switch kind {
	case noc.PayloadKernel:
		return s.Kernel.LoadMsg(r)
	case noc.PayloadMem:
		return s.Mem.LoadMsg(r)
	}
	return 0, fmt.Errorf("repro: unknown payload kind %d", kind)
}
