package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/kernel/protocol"
	"repro/internal/noc"
)

// protoRunBytes runs the determinism profile under one protocol cell and
// returns the JSON serialisation of the consolidated results, so any
// drift — a counter, a latency accumulator, a single cycle — compares
// byte-for-byte.
func protoRunBytes(t *testing.T, proto string, ocor, poll bool, workers int) []byte {
	t.Helper()
	cfg := Config{
		Benchmark: detProfile(), Threads: 16, OCOR: ocor,
		Seed: 7, Protocol: proto, Workers: workers,
	}
	if workers > 1 {
		// Force the sharded tick path: the 4x4 mesh is under the executor's
		// default work threshold.
		ncfg := noc.DefaultConfig()
		ncfg.ParThreshold = -1
		cfg.NoC = &ncfg
	}
	r, err := newSystem(t, cfg, poll).Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestProtocolDeterminismMatrix is the arena's regression matrix: every
// registered protocol, under both engines and both worker widths, must
// produce identical output bytes across repeated runs and across every
// cell of the {engine, workers} grid — a lock algorithm is only
// admissible if its schedule is a pure function of the configuration.
func TestProtocolDeterminismMatrix(t *testing.T) {
	for _, proto := range protocol.Known() {
		for _, ocor := range []bool{false, true} {
			var ref []byte
			for _, poll := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					got := protoRunBytes(t, proto, ocor, poll, workers)
					again := protoRunBytes(t, proto, ocor, poll, workers)
					if !bytes.Equal(got, again) {
						t.Fatalf("%s ocor=%v poll=%v workers=%d: repeated run diverged", proto, ocor, poll, workers)
					}
					if ref == nil {
						ref = got
						continue
					}
					if !bytes.Equal(ref, got) {
						t.Fatalf("%s ocor=%v poll=%v workers=%d: diverged from first cell:\nref: %s\ngot: %s",
							proto, ocor, poll, workers, ref, got)
					}
				}
			}
		}
	}
}

// Seed signatures of the default protocol on the determinism profile
// (Threads=16, Seed=7), pinned when the lock state machine was extracted
// behind the protocol interface. The default protocol is required to
// stay byte-identical to the original hard-wired queue spinlock; any
// behavioural change to the kernel's default path must be deliberate
// enough to justify re-pinning these.
const (
	defaultSigBase = "ec07b20599abb557bd04aa4c592770b3a5765fe9dfe0d4b12016a0c8658276c7"
	defaultSigOCOR = "a0730216bcc6888b587b51e6575e8eaf41cedfa7f4cf9c038088f863940ecefc"
)

// TestDefaultProtocolMatchesSeedSignature checks the empty-string
// protocol (the config default) and the explicit "baseline" name against
// the pinned pre-refactor signatures.
func TestDefaultProtocolMatchesSeedSignature(t *testing.T) {
	for _, proto := range []string{"", protocol.Default} {
		for _, ocor := range []bool{false, true} {
			want := defaultSigBase
			if ocor {
				want = defaultSigOCOR
			}
			sum := sha256.Sum256(protoRunBytes(t, proto, ocor, false, 1))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("protocol %q ocor=%v: signature %s, want %s (default protocol must stay byte-identical to the seed queue spinlock)",
					proto, ocor, got, want)
			}
		}
	}
}
