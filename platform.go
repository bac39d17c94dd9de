// Package repro is a library reproduction of "Opportunistic Competition
// Overhead Reduction for Expediting Critical Section in NoC based CMPs"
// (Yao & Lu, ISCA 2016).
//
// It assembles a full NoC-based CMP platform — a cycle-accurate mesh
// network with priority-capable virtual-channel routers, a directory-MOESI
// memory hierarchy, and the Linux-style queue spinlock with futex sleeping
// — and implements the paper's OCOR mechanism on top: locking-request
// packets carry the thread's remaining times of retry (RTR) and progress
// (PROG), and routers prioritize them per Table 1 so that threads about to
// fall asleep win critical sections while still in the cheap spinning
// phase.
//
// Quick start:
//
//	p, _ := workload.ByName("body")   // via repro.Benchmark("body")
//	base, ocor, _ := repro.Compare(p, 16, 1)
//	fmt.Println(metrics.COHImprovement(base, ocor))
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/kernel/protocol"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Benchmark selects a workload model from the catalog (see
	// workload.Catalog); ignored when Programs is set.
	Benchmark workload.Profile
	// Programs optionally supplies explicit per-thread programs
	// (program i runs as thread i on node i).
	Programs []cpu.Program
	// Threads is the thread count (one per core); 0 means one per node.
	Threads int
	// MeshWidth/MeshHeight give the mesh; 0 derives a mesh that fits
	// Threads (2x2, 4x4, 8x4, 8x8 for the paper's 4/16/32/64 cores).
	MeshWidth, MeshHeight int
	// OCOR enables the paper's mechanism: priority-based router
	// arbitration plus the enhanced queue spinlock. False runs the
	// baseline (round-robin routers, unmodified queue spinlock).
	OCOR bool
	// PriorityLevels is the number of priority levels for locking
	// requests (paper default 8; Fig. 16 sweeps it).
	PriorityLevels int
	// Protocol selects the kernel lock algorithm ("" = the default queue
	// spinlock, byte-identical to the hard-wired baseline). See
	// internal/kernel/protocol for the registry: mcs, cna, mutable,
	// reciprocating. Overridden by an explicit Kernel config's Protocol.
	Protocol string
	// Seed makes runs reproducible; runs with the same seed and
	// configuration are cycle-identical.
	Seed uint64
	// MaxCycles aborts a stuck run (0 = default guard).
	MaxCycles uint64
	// Trace enables per-thread region timeline recording (Fig. 10).
	Trace bool
	// Obs, when non-nil, attaches a structured-event recorder to every
	// layer (NoC, lock kernel, cores, engine). Emission sites are
	// read-only, so results are bit-identical with or without it (a
	// regression test asserts this).
	Obs *obs.Recorder
	// Workers has no effect: it set the width of the NoC's fused
	// parallel tick, which was deleted because no platform cycle held
	// enough work for it to pay (the commands run whole simulations side
	// by side instead, -j). Validate still bounds it as before, and it
	// goes with the benchmark's last use of it (ROADMAP item 8).
	Workers int

	// NoC, Mem and Kernel override subsystem defaults when non-nil.
	NoC    *noc.Config
	Mem    *mem.Config
	Kernel *kernel.Config

	// Faults, when non-nil and enabled, attaches a deterministic fault
	// injector to the NoC and the lock kernel: seeded flit drops,
	// duplicates, delays, router freezes, FUTEX_WAKE losses and priority
	// corruption per the plan. Nil (the default) is byte-identical to a
	// build without the fault machinery.
	Faults *fault.Plan
	// Recovery overrides the lock kernel's liveness-recovery settings.
	// Nil leaves recovery disabled (the byte-identical default).
	Recovery *kernel.RecoveryConfig
	// Watchdog, when non-nil, registers a simulation watchdog that sweeps
	// forward-progress and conservation invariants and aborts the run
	// with a diagnostic dump on a violation. Nil (the default) is
	// byte-identical to a build without the watchdog.
	Watchdog *sim.WatchdogConfig
}

// ConfigError is the typed validation error returned by Config.Validate:
// Field names the offending configuration field and Reason says what is
// wrong with it, mirroring noc.ConfigError and kernel.ConfigError.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("repro: invalid config: %s: %s", e.Field, e.Reason)
}

// meshDims returns the mesh New will build for this configuration: an
// explicit MeshWidth/MeshHeight wins, then a mesh derived from Threads,
// then the NoC override's own dimensions, then the 8x8 default.
func (c *Config) meshDims() (w, h int) {
	if c.MeshWidth > 0 && c.MeshHeight > 0 {
		return c.MeshWidth, c.MeshHeight
	}
	if c.Threads > 0 {
		return MeshFor(c.Threads)
	}
	if c.NoC != nil {
		return c.NoC.Width, c.NoC.Height
	}
	d := noc.DefaultConfig()
	return d.Width, d.Height
}

// Validate checks the platform configuration for impossible settings —
// negative counts, half-specified meshes, more threads or tick workers
// than the mesh has nodes, more threads than the directory can track,
// more priority levels than the policy supports — and delegates to the
// subsystem validators (noc, kernel, fault), returning a typed error that
// names the field to fix. New calls it first, so every cmd entry point
// reports bad flags as a clean error instead of panicking or misbehaving
// mid-run; entry points that stream output (CSV headers, JSON documents)
// call it directly to fail before the first byte is written. Validation
// never mutates cfg: subsystem configs are checked on copies, and default
// filling stays in the constructors.
func (c *Config) Validate() error {
	if c.Threads < 0 {
		return &ConfigError{Field: "Threads", Reason: fmt.Sprintf("negative count %d", c.Threads)}
	}
	if c.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("negative count %d", c.Workers)}
	}
	if c.PriorityLevels < 0 {
		return &ConfigError{Field: "PriorityLevels", Reason: fmt.Sprintf("negative count %d", c.PriorityLevels)}
	}
	if c.PriorityLevels > core.MaxLockLevels {
		return &ConfigError{Field: "PriorityLevels",
			Reason: fmt.Sprintf("%d levels exceed the %d the priority policy supports", c.PriorityLevels, core.MaxLockLevels)}
	}
	if c.MeshWidth < 0 || c.MeshHeight < 0 || (c.MeshWidth > 0) != (c.MeshHeight > 0) {
		return &ConfigError{Field: "MeshWidth/MeshHeight",
			Reason: fmt.Sprintf("mesh %dx%d (set both dimensions, both positive)", c.MeshWidth, c.MeshHeight)}
	}
	if w, h := c.meshDims(); w > 0 && h > 0 {
		if c.Threads > w*h {
			return &ConfigError{Field: "Threads",
				Reason: fmt.Sprintf("%d threads exceed the %dx%d mesh's %d nodes", c.Threads, w, h, w*h)}
		}
		if c.Workers > w*h {
			return &ConfigError{Field: "Workers",
				Reason: fmt.Sprintf("%d workers exceed the %dx%d mesh's %d nodes", c.Workers, w, h, w*h)}
		}
		// Threads 0 means one thread per node; explicit programs run one
		// thread each.
		threads := c.Threads
		if c.Programs != nil {
			threads = len(c.Programs)
			if threads > w*h {
				return &ConfigError{Field: "Threads",
					Reason: fmt.Sprintf("%d programs exceed the %dx%d mesh's %d nodes", threads, w, h, w*h)}
			}
		} else if threads == 0 {
			threads = w * h
		}
		if threads > mem.MaxSharers {
			return &ConfigError{Field: "Threads",
				Reason: fmt.Sprintf("%d threads exceed the %d cores the directory's sharer set tracks", threads, mem.MaxSharers)}
		}
	}
	if c.NoC != nil {
		nc := *c.NoC
		if err := nc.Validate(); err != nil {
			return err
		}
	}
	if !protocol.Valid(c.Protocol) {
		return &ConfigError{Field: "Protocol",
			Reason: fmt.Sprintf("unknown lock protocol %q (known: %v)", c.Protocol, protocol.Known())}
	}
	if c.Kernel != nil {
		kc := *c.Kernel
		if err := kc.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MeshFor returns the paper's mesh for a given core count: 2x2, 4x4, 8x4
// and 8x8 for 4, 16, 32 and 64 cores; other counts get the smallest
// near-square mesh that fits.
func MeshFor(cores int) (w, h int) {
	switch cores {
	case 4:
		return 2, 2
	case 16:
		return 4, 4
	case 32:
		return 8, 4
	case 64:
		return 8, 8
	}
	w = 1
	for w*w < cores {
		w++
	}
	h = (cores + w - 1) / w
	return w, h
}

// System is an assembled platform instance.
type System struct {
	Cfg Config

	Engine    *sim.Engine
	Net       *noc.Network
	Mem       *mem.System
	Kernel    *kernel.System
	CPU       *cpu.System
	Collector *metrics.Collector
	Timeline  *trace.Timeline
	// Faults is the attached injector (nil when Cfg.Faults is off).
	Faults *fault.Injector
	// Watchdog is the registered watchdog (nil when Cfg.Watchdog is nil).
	Watchdog *sim.Watchdog

	// started records that the workload threads have been kicked off, so
	// a system resumed from a checkpoint (or driven by repeated RunTo
	// calls) never re-issues CPU.Start.
	started bool
}

// New builds a platform from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PriorityLevels == 0 {
		cfg.PriorityLevels = core.DefaultLockLevels
	}

	// Network.
	var ncfg noc.Config
	if cfg.NoC != nil {
		ncfg = *cfg.NoC
	} else {
		ncfg = noc.DefaultConfig()
	}
	ncfg.Width, ncfg.Height = cfg.meshDims()
	ncfg.Priority = cfg.OCOR
	net, err := noc.NewNetwork(ncfg)
	if err != nil {
		return nil, err
	}
	nodes := ncfg.Nodes()
	if cfg.Threads == 0 {
		cfg.Threads = nodes
	}

	// Memory hierarchy.
	var mcfg mem.Config
	if cfg.Mem != nil {
		mcfg = *cfg.Mem
	} else {
		mcfg = mem.DefaultConfig()
	}
	msys, err := mem.NewSystem(mcfg, net)
	if err != nil {
		return nil, err
	}

	// Lock kernel with the OCOR policy.
	var kcfg kernel.Config
	if cfg.Kernel != nil {
		kcfg = *cfg.Kernel
	} else {
		kcfg = kernel.DefaultConfig()
	}
	if kcfg.Protocol == "" {
		kcfg.Protocol = cfg.Protocol
	}
	kcfg.Policy.Enabled = cfg.OCOR
	if kcfg.Policy.MaxSpin == 0 {
		kcfg.Policy.MaxSpin = core.MaxSpinCount
	}
	kcfg.Policy.LockLevels = cfg.PriorityLevels
	if kcfg.Policy.ProgSegments == 0 {
		d := core.DefaultPolicy()
		kcfg.Policy.ProgSegments = d.ProgSegments
		kcfg.Policy.ProgSpan = d.ProgSpan
	}
	if cfg.Recovery != nil {
		kcfg.Recovery = *cfg.Recovery
	}
	ksys, err := kernel.NewSystem(kcfg, net)
	if err != nil {
		return nil, err
	}

	// Fault injection (inert when no plan is configured). The plan was
	// already validated by Config.Validate above.
	var inj *fault.Injector
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj = fault.NewInjector(*cfg.Faults)
		net.SetFaults(inj)
		ksys.SetFaults(inj)
	}

	// Programs.
	progs := cfg.Programs
	if progs == nil {
		rng := sim.NewRNG(cfg.Seed ^ 0xc0ffee)
		progs = cfg.Benchmark.Programs(cfg.Threads, rng)
	}
	csys, err := cpu.NewSystem(msys, ksys, progs)
	if err != nil {
		return nil, err
	}

	s := &System{
		Cfg:       cfg,
		Engine:    sim.NewEngine(),
		Net:       net,
		Mem:       msys,
		Kernel:    ksys,
		CPU:       csys,
		Collector: metrics.NewCollector(),
		Faults:    inj,
	}
	ksys.SetListener(s.Collector)
	if cfg.Trace {
		s.Timeline = trace.NewTimeline()
		csys.AddRegionListener(s.Timeline.Listener())
	}
	if cfg.Obs != nil {
		net.SetObserver(cfg.Obs)
		ksys.SetObserver(cfg.Obs)
		csys.SetObserver(cfg.Obs)
		s.Engine.SetObserver(cfg.Obs)
	}

	// Node sink: demultiplex protocol payloads to their subsystem.
	for i := 0; i < nodes; i++ {
		node := i
		net.SetSink(node, func(now uint64, pkt *noc.Packet) {
			switch pkt.PayloadKind {
			case noc.PayloadMem:
				msys.Deliver(now, node, msys.MsgAt(pkt.PayloadRef))
			case noc.PayloadKernel:
				ksys.Deliver(now, node, ksys.MsgAt(pkt.PayloadRef))
			default:
				panic(fmt.Sprintf("repro: node %d: unexpected payload kind %d", node, pkt.PayloadKind))
			}
			net.FreePacket(pkt)
		})
	}

	for _, c := range []sim.Component{net, msys, ksys, csys} {
		s.Engine.Register(c)
	}
	if cfg.Watchdog != nil {
		s.Watchdog = s.buildWatchdog(*cfg.Watchdog)
		// Registered last so every sweep observes a settled inter-cycle
		// state (all subsystems of the cycle have ticked).
		s.Engine.Register(s.Watchdog)
	}
	s.Engine.MaxCycles = cfg.MaxCycles
	if s.Engine.MaxCycles == 0 {
		s.Engine.MaxCycles = 500_000_000
	}
	return s, nil
}

// Run executes the workload to completion and returns the consolidated
// results.
func (s *System) Run() (metrics.Results, error) {
	s.start()
	s.Engine.RunUntil(s.CPU.AllDone)
	if err := s.watchdogErr(); err != nil {
		return metrics.Results{}, err
	}
	if !s.CPU.AllDone() {
		if s.Engine.Aborted() {
			return metrics.Results{}, fmt.Errorf("repro: run aborted at cycle %d (external abort)", s.Engine.Now())
		}
		return metrics.Results{}, fmt.Errorf("repro: run aborted at cycle %d (MaxCycles guard)", s.Engine.Now())
	}
	// Drain in-flight protocol stragglers (final releases, wakeups,
	// write-backs) so the platform ends quiescent and coherent.
	drained := func() bool {
		return !s.Net.Busy() && s.Mem.Pending() == 0 && s.Kernel.Pending() == 0
	}
	if s.Faults != nil {
		// Dropped packets never reach their protocol consumers, so a
		// faulted run may legitimately never reach protocol quiescence
		// (e.g. a swallowed final wakeup); bound the drain instead of
		// spinning to the MaxCycles guard.
		limit := s.Engine.Now() + 1_000_000
		s.Engine.RunUntil(func() bool { return drained() || s.Engine.Now() >= limit })
	} else {
		s.Engine.RunUntil(drained)
	}
	if err := s.watchdogErr(); err != nil {
		return metrics.Results{}, err
	}
	if s.Timeline != nil {
		s.Timeline.Close(s.Engine.Now())
	}
	name := s.Cfg.Benchmark.Name
	if name == "" {
		name = "custom"
	}
	return s.Collector.Finalize(name, s.Cfg.OCOR, s.CPU, s.Net), nil
}

// start kicks off the workload threads exactly once per system lifetime.
// A system restored from a mid-run checkpoint arrives with started already
// true, so its threads — whose in-flight continuations were rebuilt by the
// restore — are never started a second time.
func (s *System) start() {
	if s.started {
		return
	}
	s.started = true
	s.CPU.Start(s.Engine.Now())
}

// RunTo advances the simulation until the clock reaches at least target or
// every thread finishes, whichever comes first, and returns the cycle it
// stopped at. The workload is started on first use, so alternating RunTo
// and Snapshot carves one run into checkpointed segments; Run picks up
// seamlessly afterwards for the remainder.
func (s *System) RunTo(target uint64) (uint64, error) {
	s.start()
	s.Engine.RunUntil(func() bool {
		return s.CPU.AllDone() || s.Engine.Now() >= target
	})
	if err := s.watchdogErr(); err != nil {
		return s.Engine.Now(), err
	}
	return s.Engine.Now(), nil
}

// Benchmark looks up a catalog profile by name.
func Benchmark(name string) (workload.Profile, error) { return workload.ByName(name) }

// Catalog returns all 25 benchmark profiles.
func Catalog() []workload.Profile { return workload.Catalog() }

// RunBenchmark runs one catalog profile at the given scale.
func RunBenchmark(p workload.Profile, threads int, ocor bool, seed uint64) (metrics.Results, error) {
	sys, err := New(Config{Benchmark: p, Threads: threads, OCOR: ocor, Seed: seed})
	if err != nil {
		return metrics.Results{}, err
	}
	return sys.Run()
}

// Compare runs a profile with and without OCOR under identical seeds and
// returns both results (the paper's Original vs OCOR comparison).
func Compare(p workload.Profile, threads int, seed uint64) (base, ocor metrics.Results, err error) {
	base, err = RunBenchmark(p, threads, false, seed)
	if err != nil {
		return
	}
	ocor, err = RunBenchmark(p, threads, true, seed)
	return
}
