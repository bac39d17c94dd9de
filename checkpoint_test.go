package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// runToJSON finishes sys and returns the canonical byte serialization of
// its consolidated results.
func runToJSON(t *testing.T, sys *System) []byte {
	t.Helper()
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointRoundTripMatrix is the checkpoint subsystem's end-to-end
// guarantee: for every lock protocol, both OCOR modes and both engine
// schedulers, snapshotting a run half-way,
// restoring the snapshot into a freshly built platform and running to
// completion produces results byte-identical to the uninterrupted run.
// Restored platforms are also immediately re-snapshotted and the two
// snapshots compared byte-for-byte: a restore must lose nothing a second
// save could miss.
func TestCheckpointRoundTripMatrix(t *testing.T) {
	for _, proto := range []string{"", "mcs", "cna", "mutable", "reciprocating"} {
		for _, ocor := range []bool{false, true} {
			base := Config{
				Benchmark: detProfile(), Threads: 16, OCOR: ocor,
				Seed: 7, Protocol: proto,
			}
			refSys, err := New(base)
			if err != nil {
				t.Fatal(err)
			}
			ref := runToJSON(t, refSys)
			mid := refSys.Engine.Now() / 2

			for _, poll := range []bool{false, true} {
				sys := newSystem(t, base, poll)
				if _, err := sys.RunTo(mid); err != nil {
					t.Fatalf("proto=%q ocor=%v poll=%v: RunTo: %v", proto, ocor, poll, err)
				}
				snap, err := sys.Snapshot()
				if err != nil {
					t.Fatalf("proto=%q ocor=%v poll=%v: snapshot: %v", proto, ocor, poll, err)
				}
				restored, err := Restore(base, snap)
				if err != nil {
					t.Fatalf("proto=%q ocor=%v poll=%v: restore: %v", proto, ocor, poll, err)
				}
				if poll {
					pollEngine(t, restored)
				}
				snap2, err := restored.Snapshot()
				if err != nil {
					t.Fatalf("proto=%q ocor=%v poll=%v: re-snapshot: %v", proto, ocor, poll, err)
				}
				if !bytes.Equal(snap.Data, snap2.Data) {
					t.Fatalf("proto=%q ocor=%v poll=%v: re-snapshot of restored platform differs (%d vs %d bytes)",
						proto, ocor, poll, len(snap.Data), len(snap2.Data))
				}
				if got := runToJSON(t, restored); !bytes.Equal(ref, got) {
					t.Fatalf("proto=%q ocor=%v poll=%v: restored run diverged from uninterrupted:\nref: %s\ngot: %s",
						proto, ocor, poll, ref, got)
				}
			}
		}
	}
}

// TestCheckpointMidFaultWindow snapshots inside an active fault-injection
// run — seeded drops plus delayed flits parked on link queues, with the
// recovery machinery armed — and requires the restored continuation to
// reproduce the uninterrupted faulted run byte-for-byte. This pins the
// hairiest state: fault counters, per-lock wake ordinals, out-of-order
// link event queues and recovery backoff timers all cross the snapshot.
func TestCheckpointMidFaultWindow(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		cfg := faultyConfig(ocor)
		refSys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := runToJSON(t, refSys)
		mid := refSys.Engine.Now() / 2

		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunTo(mid); err != nil {
			t.Fatal(err)
		}
		if sys.Faults.Stats.DelayedFlits.Load()+sys.Faults.Stats.DroppedFlits.Load() == 0 {
			t.Fatalf("ocor=%v: no fault fired before cycle %d; snapshot would not cover the injection window", ocor, mid)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := runToJSON(t, restored); !bytes.Equal(ref, got) {
			t.Fatalf("ocor=%v: restored faulted run diverged:\nref: %s\ngot: %s", ocor, ref, got)
		}
	}
}

// TestCheckpointFileRoundTrip pushes a mid-run snapshot through the file
// container (atomic write, magic/version/CRC header) and restores from the
// re-read copy, covering the persistence path resumable sweeps use.
func TestCheckpointFileRoundTrip(t *testing.T) {
	cfg := Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7}
	refSys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := runToJSON(t, refSys)
	mid := refSys.Engine.Now() / 2

	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunTo(mid); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if got := runToJSON(t, restored); !bytes.Equal(ref, got) {
		t.Fatalf("file round-tripped restore diverged:\nref: %s\ngot: %s", ref, got)
	}
}

// TestCheckpointInertKernelForksProtocols is the warm-start fork contract:
// a snapshot taken before any thread's first lock acquisition omits the
// kernel section entirely, so it restores into platforms running a
// different lock protocol — and the forked continuation must match that
// protocol's uninterrupted run byte-for-byte.
func TestCheckpointInertKernelForksProtocols(t *testing.T) {
	base := Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7}

	// Advance the prefix platform in small steps while the kernel is
	// still inert, keeping the last pre-first-lock snapshot point.
	prefix, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	var at uint64
	for prefix.Kernel.Inert() {
		at = prefix.Engine.Now() + 50
		if _, err := prefix.RunTo(at); err != nil {
			t.Fatal(err)
		}
		if prefix.CPU.AllDone() {
			t.Fatal("workload finished without a single lock acquisition")
		}
	}
	// The kernel woke inside the last step; rebuild and stop one step
	// earlier, at the last cycle known inert.
	last := at - 50
	if last == 0 {
		t.Fatal("first lock acquisition landed before the first step")
	}
	prefix, err = New(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prefix.RunTo(last); err != nil {
		t.Fatal(err)
	}
	if !prefix.Kernel.Inert() {
		t.Fatalf("kernel not inert at cycle %d on the rebuilt prefix", last)
	}
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, proto := range []string{"", "mcs", "cna", "mutable", "reciprocating"} {
		cfg := base
		cfg.Protocol = proto
		refSys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := runToJSON(t, refSys)

		forked, err := Restore(cfg, snap)
		if err != nil {
			t.Fatalf("proto=%q: fork restore: %v", proto, err)
		}
		if got := runToJSON(t, forked); !bytes.Equal(ref, got) {
			t.Fatalf("proto=%q: forked run diverged from uninterrupted:\nref: %s\ngot: %s", proto, ref, got)
		}
	}
}

// TestCheckpointRejects covers the guarded failure modes: restoring into
// a mismatched configuration, restoring a snapshot of another format
// version, and restoring a non-inert kernel snapshot into a different
// protocol.
func TestCheckpointRejects(t *testing.T) {
	cfg := Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := uint64(20_000)
	if _, err := sys.RunTo(mid); err != nil {
		t.Fatal(err)
	}
	if sys.Kernel.Inert() {
		t.Fatalf("kernel still inert at cycle %d; test needs lock traffic", mid)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Seed = 8
	if _, err := Restore(bad, snap); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("restore under different seed: got %v, want config mismatch", err)
	}
	bad = cfg
	bad.OCOR = false
	if _, err := Restore(bad, snap); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("restore under different OCOR mode: got %v, want config mismatch", err)
	}
	// The version is checked before any decoding, so a snapshot of an
	// older format fails the same way whatever its payload.
	for v := uint32(1); v < checkpoint.Version; v++ {
		old := &checkpoint.Snapshot{Version: v, Data: snap.Data}
		if _, err := Restore(cfg, old); !errors.Is(err, checkpoint.ErrVersion) {
			t.Fatalf("restore of a version-%d snapshot: got %v, want checkpoint.ErrVersion", v, err)
		}
	}
	bad = cfg
	bad.Protocol = "mcs"
	if _, err := Restore(bad, snap); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("cross-protocol restore of non-inert kernel: got %v, want protocol mismatch", err)
	}
	bad = cfg
	bad.Faults = &fault.Plan{Seed: 41, DropRate: 0.01}
	bad.Recovery = &kernel.RecoveryConfig{Enabled: true}
	if _, err := Restore(bad, snap); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("restore with fault injection added: got %v, want fault mismatch", err)
	}
}

// BenchmarkCheckpointRoundTrip measures the full checkpoint round trip —
// snapshot a mid-run platform, then restore it into a freshly built one —
// and reports the snapshot size alongside ns/op and allocs/op. CI's
// bench-smoke gate holds allocs/op to .github/checkpoint-alloc-threshold.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	cfg := Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7}
	src, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.RunTo(45000); err != nil {
		b.Fatal(err)
	}
	warm, err := src.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(warm.Size()), "snapshot-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := src.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Restore(cfg, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckpointBytesPinned pins the on-disk bytes of two mid-run
// snapshots to SHA-256 digests, so a change to what the platform
// serializes — or to how it serializes a node that never ran a thread —
// cannot slip past the round-trip tests, which only compare a platform
// with itself. The second platform runs 4 threads on an 8x8 mesh: its 60
// idle nodes never build an L1 or a lock client, and each must still
// encode as exactly the record a freshly built one writes, or existing
// spools and prefix caches stop loading. A deliberate format change bumps
// checkpoint.Version and refreshes these digests.
func TestCheckpointBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		at   uint64
		want string
	}{
		{"det-16t-4x4", Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7}, 7500,
			"ce650b6459b2988e229a4913958f2f65778fd5f6337b5807d97beb45b5ae9479"},
		{"det-4t-8x8", Config{Benchmark: detProfile(), Threads: 4, MeshWidth: 8, MeshHeight: 8, OCOR: true, Seed: 7}, 2500,
			"bfd5d3e6dcdc6a7340379e46111c5d041dc68a616eebda1faff0e3951a27a2d4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunTo(c.at); err != nil {
				t.Fatal(err)
			}
			if sys.CPU.AllDone() || sys.Kernel.Inert() {
				t.Fatalf("cycle %d is not mid-run (done=%v, inert kernel=%v)", c.at, sys.CPU.AllDone(), sys.Kernel.Inert())
			}
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "pinned.ckpt")
			if err := snap.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != c.want {
				t.Fatalf("checkpoint file at cycle %d: sha256 %s, want %s (%d bytes)", c.at, got, c.want, len(raw))
			}

			// The restored platform writes the same bytes and finishes
			// like the uninterrupted run.
			restored, err := Restore(c.cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			again, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Data, snap.Data) {
				t.Fatal("restored platform re-encodes to different bytes")
			}
			ref, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := runToJSON(t, ref), runToJSON(t, restored); !bytes.Equal(want, got) {
				t.Fatalf("restored run diverged:\nref: %s\ngot: %s", want, got)
			}
		})
	}
}

// TestRestoreAtManyCycles snapshots one run every 1,200 cycles from start
// to finish, restores each snapshot into a fresh platform and requires the
// finished results to equal the uninterrupted run's byte for byte. The
// pinned-digest and warm-start tests restore at a handful of cycles; a
// sweep also catches state that matters only at some instants, such as an
// input VC that is active but momentarily empty because the rest of its
// packet is still upstream.
func TestRestoreAtManyCycles(t *testing.T) {
	p, err := Benchmark("can")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Benchmark: p.Scale(0.1), Threads: 16, OCOR: true, Seed: 3}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runToJSON(t, ref)
	end := ref.Engine.Now()

	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restores := 0
	for at := uint64(1200); at < end; at += 1200 {
		if _, err := sys.RunTo(at); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatalf("cycle %d: %v", at, err)
		}
		restored, err := Restore(cfg, snap)
		if err != nil {
			t.Fatalf("cycle %d: restore: %v", at, err)
		}
		if got := runToJSON(t, restored); !bytes.Equal(got, want) {
			t.Fatalf("restored at cycle %d, the run diverged:\nref: %s\ngot: %s", at, want, got)
		}
		restores++
	}
	if restores < 10 {
		t.Fatalf("only %d restores before the run ended at cycle %d", restores, end)
	}
	t.Logf("%d restores across %d cycles", restores, end)
}

// fuzzConfig is FuzzRestore's platform: two threads on a 2x1 mesh with
// tiny caches, so the seed snapshot is about 8 KB. Each execution, and
// each minimisation of a new input, costs more the larger the input is.
func fuzzConfig() Config {
	return Config{Benchmark: detProfile(), Threads: 2, MeshWidth: 2, MeshHeight: 1, OCOR: true, Seed: 7,
		Mem: &mem.Config{L1Sets: 4, L1Ways: 2, L2Sets: 16, L2Ways: 4}}
}

// FuzzRestore feeds arbitrary payloads to Restore past the file
// checksum, so they reach every layer's RestoreFrom. A malformed payload
// may fail with an error but must never panic, exhaust memory or hang.
// The seed is a mid-run snapshot that holds lock state and flits on
// links.
func FuzzRestore(f *testing.F) {
	sys, err := New(fuzzConfig())
	if err != nil {
		f.Fatal(err)
	}
	for at := uint64(100); sys.Kernel.Inert() || sys.Net.CensusNow().LinkTails == 0; at += 100 {
		if sys.CPU.AllDone() {
			f.Fatal("the run ended before a cycle with lock state and flits on links")
		}
		if _, err := sys.RunTo(at); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := sys.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Restore(fuzzConfig(), snap); err != nil {
		f.Fatalf("the seed does not restore: %v", err)
	}
	f.Add(snap.Data)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Restore(fuzzConfig(), &checkpoint.Snapshot{Version: checkpoint.Version, Data: data})
	})
}
