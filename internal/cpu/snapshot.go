package cpu

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// Every action on the CPU delay queue is a thread-step continuation; the
// tag's low byte is the single kind and the rest the owning thread.
const cpuTagStep = 1

// stepTag packs the step-continuation tag for a thread.
func stepTag(thread int) uint32 { return cpuTagStep | uint32(thread)<<8 }

// StepContinuation returns the canonical completion continuation of the
// thread running on node (nil when the node runs no thread). The memory
// system's restore resolves serialized op callbacks through it.
func (s *System) StepContinuation(node int) func(now uint64) {
	for _, t := range s.Threads {
		if t.ID == node {
			return t.stepFn
		}
	}
	return nil
}

// SnapshotTo writes the CPU complex's dynamic state: the compute timer
// queue (as tagged actions), every thread's program counter and region
// accounting, and the barrier arrival lists.
func (s *System) SnapshotTo(w *checkpoint.Writer) error {
	seq, actions, err := s.delay.SaveActions()
	if err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	w.Begin("cpu")
	w.U64(seq)
	w.Len(len(actions))
	for _, a := range actions {
		w.U64(a.At)
		w.U64(a.Seq)
		w.U32(a.Tag)
		w.U64(a.A)
		w.U64(a.B)
	}
	w.Int(s.remaining)
	w.Len(len(s.Threads))
	for _, t := range s.Threads {
		w.Int(t.pc)
		w.U8(uint8(t.region))
		w.U64(t.regionSince)
		w.U64(t.blockStart)
		w.U64(t.csStart)
		w.Bool(t.Done)
		w.U64(t.Stats.StartedAt)
		w.U64(t.Stats.FinishedAt)
		w.U64(t.Stats.BlockedCycles)
		w.U64(t.Stats.CSCycles)
		w.U64(t.Stats.Acquisitions)
		w.U64(t.Stats.MemOps)
		w.U64(t.Stats.ComputeCycles)
	}
	groups := make([]int, 0, len(s.barriers))
	for g := range s.barriers {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	w.Len(len(groups))
	for _, g := range groups {
		b := s.barriers[g]
		w.Int(g)
		waiting := make([]int, len(b.waiting))
		for i, t := range b.waiting {
			waiting[i] = t.ID
		}
		w.Ints(waiting)
	}
	w.End()
	// The kernel holds the in-progress acquisitions; their completion
	// continuations (grantFn) are rebound by RebindContinuations.
	return nil
}

// RestoreFrom overwrites a freshly constructed system's dynamic state and
// rebinds any lock acquisitions the kernel restored without a completion
// continuation.
func (s *System) RestoreFrom(r *checkpoint.Reader) error {
	r.Begin("cpu")
	seq := r.U64()
	n := r.Len()
	saved := make([]sim.SavedAction, 0, n)
	for i := 0; i < n; i++ {
		saved = append(saved, sim.SavedAction{
			At: r.U64(), Seq: r.U64(), Tag: r.U32(), A: r.U64(), B: r.U64(),
		})
	}
	s.remaining = r.Int()
	nt := r.Len()
	if r.Err() == nil && nt != len(s.Threads) {
		return fmt.Errorf("cpu: snapshot has %d threads, system %d", nt, len(s.Threads))
	}
	for _, t := range s.Threads {
		// pc == len(prog) is a thread past its last operation.
		t.pc = r.Index(len(t.prog) + 1)
		t.region = Region(r.U8())
		t.regionSince = r.U64()
		t.blockStart = r.U64()
		t.csStart = r.U64()
		t.Done = r.Bool()
		t.Stats.StartedAt = r.U64()
		t.Stats.FinishedAt = r.U64()
		t.Stats.BlockedCycles = r.U64()
		t.Stats.CSCycles = r.U64()
		t.Stats.Acquisitions = r.U64()
		t.Stats.MemOps = r.U64()
		t.Stats.ComputeCycles = r.U64()
	}
	ng := r.Len()
	for i := 0; i < ng; i++ {
		g := r.Int()
		waiting := r.Ints()
		b := s.barriers[g]
		if b == nil {
			if r.Err() == nil {
				return fmt.Errorf("cpu: snapshot has unknown barrier group %d", g)
			}
			break
		}
		b.waiting = b.waiting[:0]
		for _, id := range waiting {
			th := s.thread(id)
			if th == nil {
				return fmt.Errorf("cpu: barrier %d waits on unknown thread %d", g, id)
			}
			b.waiting = append(b.waiting, th)
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return err
	}
	if err := s.delay.RestoreActions(seq, saved, s.resolveTimer); err != nil {
		return err
	}
	for _, id := range s.Kernel.PendingAcquisitions() {
		th := s.thread(id)
		if th == nil {
			return fmt.Errorf("cpu: kernel acquisition pending on unknown thread %d", id)
		}
		s.Kernel.RebindLockContinuation(id, th.grantFn)
	}
	return nil
}

// resolveTimer rebinds saved delay-queue actions (all step continuations).
func (s *System) resolveTimer(tag uint32, _, _ uint64) (func(uint64), func(now, a, b uint64)) {
	if tag&0xff != cpuTagStep {
		return nil, nil
	}
	if th := s.thread(int(tag >> 8)); th != nil {
		return th.stepFn, nil
	}
	return nil, nil
}

// thread returns the thread with the given id (nil when absent).
func (s *System) thread(id int) *Thread {
	for _, t := range s.Threads {
		if t.ID == id {
			return t
		}
	}
	return nil
}
