package repro

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/workload"
)

// detProfile is a small contended workload used by the determinism tests.
func detProfile() workload.Profile {
	return workload.Profile{
		Name: "det", Suite: "TEST",
		ComputeGap: 600, GapMemOps: 3, WorkingSet: 64,
		SharedFrac: 0.15, GlobalBlocks: 32, SharedWriteFrac: 0.25,
		Locks: 2, CSLen: 50, CSMemOps: 2, Iterations: 5,
	}
}

// TestPollEngineMatchesEventEngine cross-checks the event-driven scheduler
// against the exhaustive-polling oracle: the same configuration must
// produce identical results either way, for both the baseline and OCOR.
func TestPollEngineMatchesEventEngine(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		var got [2]metrics.Results
		for i, poll := range []bool{false, true} {
			sys := newSystem(t, Config{Benchmark: detProfile(), Threads: 16, OCOR: ocor, Seed: 7}, poll)
			r, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = r
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("ocor=%v: event-driven results differ from polled:\nevent: %+v\npoll:  %+v", ocor, got[0], got[1])
		}
	}
}

// TestObserverDoesNotPerturbResults attaches a structured-event recorder
// and requires results byte-identical to an unobserved run, across both
// engines and both OCOR modes: every emission site must be read-only, so
// tracing a run can never change what it measures.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		for _, poll := range []bool{false, true} {
			var got [2]metrics.Results
			var rec *obs.Recorder
			for i, observe := range []bool{false, true} {
				cfg := Config{Benchmark: detProfile(), Threads: 16, OCOR: ocor, Seed: 7}
				if observe {
					rec = obs.NewRecorder(0)
					cfg.Obs = rec
				}
				r, err := newSystem(t, cfg, poll).Run()
				if err != nil {
					t.Fatal(err)
				}
				got[i] = r
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("ocor=%v poll=%v: observed run differs from unobserved:\nbare:     %+v\nobserved: %+v",
					ocor, poll, got[0], got[1])
			}
			if rec.Len() == 0 {
				t.Fatalf("ocor=%v poll=%v: recorder attached but captured nothing", ocor, poll)
			}
			if rec.Stats.Acquires == 0 {
				t.Fatalf("ocor=%v poll=%v: no acquisitions recorded", ocor, poll)
			}
		}
	}
}

// TestWorkersDeterminismMatrix is the tick executor's end-to-end
// guarantee: the full platform produces byte-identical results across the
// whole matrix {sequential, workers=2, workers=4} × {OCOR off, OCOR on} ×
// {fast-forward, tick every busy cycle}. The comparison is on the JSON
// serialisation of the consolidated results, so any drift — a counter, a
// latency accumulator, a single cycle — fails byte-for-byte. The
// 16-thread profile runs on a 4x4 mesh, well under the executor's default
// work gate, so the NoC config forces ParThreshold -1 (always parallel
// when a pool is attached) to make every worker-count cell actually
// exercise the sharded path. The busy-tick dimension runs the network
// behind the busyTickEngine oracle and pins idle-window fast-forward as a
// pure scheduling optimisation: skipping quiescent windows must leave the
// platform export byte-identical to ticking every busy cycle.
func TestWorkersDeterminismMatrix(t *testing.T) {
	for _, ocor := range []bool{false, true} {
		var ref []byte
		for _, workers := range []int{1, 2, 4} {
			for _, busyTick := range []bool{false, true} {
				ncfg := noc.DefaultConfig()
				ncfg.ParThreshold = -1
				sys, err := New(Config{
					Benchmark: detProfile(), Threads: 16, OCOR: ocor,
					Seed: 7, Workers: workers, NoC: &ncfg,
				})
				if err != nil {
					t.Fatal(err)
				}
				if busyTick {
					busyTickEngine(t, sys)
				}
				r, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("ocor=%v workers=%d busyTick=%v: export diverged from sequential:\nseq: %s\ngot: %s",
						ocor, workers, busyTick, ref, got)
				}
			}
		}
	}
}

// TestRunSuiteParallelMatchesSerial runs the real simulation suite with one
// worker and with eight and requires bit-identical results and progress
// output: parallelism must not affect determinism.
func TestRunSuiteParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite comparison is slow")
	}
	base := experiments.Options{Threads: 16, Seed: 3, Scale: 0.05, Quick: true}

	run := func(jobs int) ([]experiments.BenchResult, string) {
		o := base
		o.Jobs = jobs
		var buf bytes.Buffer
		rs, err := experiments.RunSuite(o, &buf)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return rs, buf.String()
	}

	serialRes, serialOut := run(1)
	parRes, parOut := run(8)
	if !reflect.DeepEqual(serialRes, parRes) {
		t.Fatal("parallel RunSuite results differ from serial")
	}
	if serialOut != parOut {
		t.Fatalf("progress output differs:\nserial:\n%s\nparallel:\n%s", serialOut, parOut)
	}
}
