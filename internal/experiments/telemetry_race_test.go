package experiments

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	libra "repro"
	"repro/internal/telemetry"
)

// TestSharedTraceUnderPool renders several small simulations concurrently into
// one shared Trace — the exact shape -trace-out uses with the parallel
// experiment pool. Under -race this gates the telemetry layer's thread safety
// end to end (sim, caches, DRAM, scheduler all emitting concurrently).
func TestSharedTraceUnderPool(t *testing.T) {
	if testing.Short() {
		t.Skip("renders frames")
	}
	tr := telemetry.NewTrace(telemetry.TraceConfig{})
	games := []string{"SuS", "CCS", "HCR", "AAt"}
	pool := NewPool(4)
	errs := make([]error, len(games))
	pool.ForEach(len(games), func(j int) {
		run, err := libra.NewRun(libra.LIBRA(160, 96, 2), games[j])
		if err != nil {
			errs[j] = err
			return
		}
		run.SetRecorder(tr)
		run.RenderFrames(2)
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	s := exportedMetrics(t, tr)
	if got := s.Counters["frames"]; got != int64(2*len(games)) {
		t.Errorf("frames = %d, want %d", got, 2*len(games))
	}
	if s.Counters["sched.decisions"] != int64(2*len(games)) {
		t.Errorf("sched.decisions = %d, want %d", s.Counters["sched.decisions"], 2*len(games))
	}
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("shared trace export is not valid JSON")
	}
}

// TestRunnerTelemetryHook checks the SetTelemetry factory is consulted per
// leader simulation and its recorder attached (frames land in the registry).
func TestRunnerTelemetryHook(t *testing.T) {
	if testing.Short() {
		t.Skip("renders frames")
	}
	tr := telemetry.NewTrace(telemetry.TraceConfig{})
	p := Params{ScreenW: 160, ScreenH: 96, Frames: 1, Warmup: 0, L2KB: 256}
	r := NewRunner(p)
	r.SetJobs(2)
	var calls atomic.Int64
	r.SetTelemetry(func(cfg libra.Config, game string) telemetry.Recorder {
		calls.Add(1)
		return tr
	})
	res := r.Registry()["fig01"]()
	if res == nil {
		t.Fatal("fig01 returned nil")
	}
	if calls.Load() == 0 {
		t.Error("telemetry factory was never called")
	}
	if got := exportedMetrics(t, tr).Counters["frames"]; got == 0 {
		t.Error("recorder attached via SetTelemetry saw no frames")
	}
}

// exportedMetrics decodes tr's ExportMetrics output: the registry snapshot
// that -metrics-out writes.
func exportedMetrics(t *testing.T, tr *telemetry.Trace) telemetry.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.ExportMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var s telemetry.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	return s
}
