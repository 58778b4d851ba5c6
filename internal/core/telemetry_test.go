package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestSetRecorderWiresEveryUnit renders a frame with a recorder attached at
// the GPU level and checks every instrumented unit reported through it:
// raster units, scheduler, caches and DRAM.
func TestSetRecorderWiresEveryUnit(t *testing.T) {
	p, err := workloads.ByAbbrev("SuS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := LIBRAConfig(testW, testH, 2)
	gpu := New(cfg)
	tr := telemetry.NewTrace(telemetry.TraceConfig{ClockHz: cfg.ClockHz})
	gpu.SetRecorder(tr)
	gpu.RenderFrame(p.New().BuildFrame(0))

	s := exportedMetrics(t, tr)
	if s.Counters["frames"] != 1 {
		t.Errorf("frames = %d, want 1", s.Counters["frames"])
	}
	if s.Counters["ru0.tiles"] == 0 || s.Counters["ru1.tiles"] == 0 {
		t.Errorf("tiles = ru0:%d ru1:%d, want both > 0",
			s.Counters["ru0.tiles"], s.Counters["ru1.tiles"])
	}
	if s.Counters["sched.decisions"] != 1 {
		t.Errorf("sched.decisions = %d, want 1", s.Counters["sched.decisions"])
	}
	if s.Counters["sched.assigned"] == 0 {
		t.Error("scheduler assignments were not recorded")
	}
	if s.Counters["dram.reads"]+s.Counters["dram.writes"] == 0 {
		t.Error("DRAM accesses were not recorded")
	}
	if len(s.Histograms["cache.l1.hits"].Buckets) == 0 {
		t.Error("L1 hit series is empty")
	}

	// Detaching must stop recording.
	gpu.SetRecorder(nil)
	gpu.RenderFrame(p.New().BuildFrame(1))
	if got := exportedMetrics(t, tr).Counters["frames"]; got != 1 {
		t.Errorf("frames after detach = %d, want 1", got)
	}
}

func TestGPUAccessors(t *testing.T) {
	cfg := DefaultConfig(testW, testH)
	gpu := New(cfg)
	if gpu.Config().ScreenW != testW {
		t.Errorf("Config().ScreenW = %d, want %d", gpu.Config().ScreenW, testW)
	}
	if gpu.Grid().NumTiles() == 0 {
		t.Error("Grid() has no tiles")
	}
	if gpu.FrameBuffer() == nil {
		t.Error("FrameBuffer() is nil")
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
