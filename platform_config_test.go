package repro

import (
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/noc"
)

// TestPlatformConfigValidate exercises the platform-level typed
// validation errors that every cmd entry point relies on: impossible
// settings must come back as a *ConfigError naming the field, and
// subsystem problems must surface as the subsystem's own typed error.
func TestPlatformConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative threads", Config{Threads: -1}, "Threads"},
		{"negative workers", Config{Workers: -2}, "Workers"},
		{"negative levels", Config{PriorityLevels: -8}, "PriorityLevels"},
		{"half-specified mesh", Config{MeshWidth: 4}, "MeshWidth/MeshHeight"},
		{"negative mesh", Config{MeshWidth: -4, MeshHeight: 4}, "MeshWidth/MeshHeight"},
		{"threads exceed mesh", Config{Threads: 20, MeshWidth: 4, MeshHeight: 4}, "Threads"},
		{"workers exceed mesh", Config{Threads: 16, Workers: 17}, "Workers"},
		{"threads exceed sharer set", Config{Threads: 257, MeshWidth: 17, MeshHeight: 17}, "Threads"},
		{"one thread per node past sharer set", Config{MeshWidth: 17, MeshHeight: 17}, "Threads"},
		{"programs exceed sharer set", Config{Programs: make([]cpu.Program, 257), MeshWidth: 17, MeshHeight: 17}, "Threads"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != c.field {
				t.Fatalf("Validate() flagged field %q, want %q (%v)", ce.Field, c.field, err)
			}
			if _, err := New(c.cfg); err == nil {
				t.Fatal("New accepted the invalid config")
			}
		})
	}

	// Subsystem configs are validated too, on copies: the caller's struct
	// must not be default-filled as a side effect.
	ncfg := noc.Config{Width: 4, Height: 4, VCs: 2}
	var nerr *noc.ConfigError
	if err := (&Config{NoC: &ncfg}).Validate(); !errors.As(err, &nerr) {
		t.Fatalf("bad NoC config: err = %v, want *noc.ConfigError", err)
	}
	kcfg := kernel.Config{SpinInterval: -1}
	var kerr *kernel.ConfigError
	if err := (&Config{Kernel: &kcfg}).Validate(); !errors.As(err, &kerr) {
		t.Fatalf("bad kernel config: err = %v, want *kernel.ConfigError", err)
	}
	good := kernel.Config{}
	if err := (&Config{Kernel: &good}).Validate(); err != nil {
		t.Fatalf("default kernel config rejected: %v", err)
	}
	if good.SpinInterval != 0 {
		t.Fatal("Validate default-filled the caller's kernel config")
	}

	// The healthy defaults must pass untouched, and so must a full
	// sharer set (the benchmark's 256-thread 16x16 workload).
	for _, cfg := range []Config{
		{Threads: 16, Workers: 4},
		{Threads: 256, MeshWidth: 16, MeshHeight: 16, Workers: 2},
		{MeshWidth: 16, MeshHeight: 16},
		{Programs: make([]cpu.Program, 16), MeshWidth: 17, MeshHeight: 17},
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("valid config %+v rejected: %v", cfg, err)
		}
	}
}
