package libra_test

import (
	"bytes"
	"encoding/json"
	"testing"

	libra "repro"
	"repro/internal/telemetry"
)

// TestTraceRealFrame renders a real frame with a recorder attached and checks
// the acceptance shape of the export: at least one tile span per raster unit
// and at least one DRAM bank track, all loadable as Chrome trace-event JSON.
func TestTraceRealFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("renders frames")
	}
	const rus = 2
	cfg := libra.LIBRA(320, 192, rus)
	run, err := libra.NewRun(cfg, "SuS")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace(telemetry.TraceConfig{ClockHz: cfg.ClockHz})
	run.SetRecorder(tr)
	run.RenderFrames(1)

	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			Tid int    `json:"tid"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	ruSpans := map[int]int{}
	bankTracks := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "tile":
			ruSpans[ev.Tid]++
		case "dram":
			bankTracks[ev.Tid] = true
		}
	}
	for ru := 0; ru < rus; ru++ {
		if ruSpans[ru] == 0 {
			t.Errorf("raster unit %d has no tile spans", ru)
		}
	}
	if len(bankTracks) == 0 {
		t.Error("no DRAM bank tracks in trace")
	}

	// The metrics registry must agree with the simulator's own accounting.
	s := exportedMetrics(t, tr)
	if s.Counters["frames"] != 1 {
		t.Errorf("frames = %d, want 1", s.Counters["frames"])
	}
	var tiles int64
	for ru := 0; ru < rus; ru++ {
		tiles += int64(ruSpans[ru])
	}
	wantTiles := s.Counters["ru0.tiles"] + s.Counters["ru1.tiles"]
	if tiles != wantTiles {
		t.Errorf("trace has %d tile spans but registry counts %d tiles", tiles, wantTiles)
	}
}

// TestRecorderDoesNotPerturbTiming renders the same sequence with and without
// a recorder; cycle counts must be byte-identical (observation only).
func TestRecorderDoesNotPerturbTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("renders frames")
	}
	render := func(rec telemetry.Recorder) []int64 {
		run, err := libra.NewRun(libra.LIBRA(320, 192, 2), "SuS")
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			run.SetRecorder(rec)
		}
		var cycles []int64
		for _, f := range run.RenderFrames(2) {
			cycles = append(cycles, f.TotalCycles)
		}
		return cycles
	}
	plain := render(nil)
	traced := render(telemetry.NewTrace(telemetry.TraceConfig{}))
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("frame %d: %d cycles untraced vs %d traced", i, plain[i], traced[i])
		}
	}
}

// TestRenderElimAcceptance is the feature's acceptance check on a coherent
// profile: with Rendering Elimination enabled on AnB (static background),
// the telemetry counters must report skipped tiles and a positive hit ratio,
// the per-frame results must agree with the counter, and the run must be
// measurably faster than the RE-off render of the same frames.
func TestRenderElimAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("renders frames")
	}
	const frames = 3
	cfg := libra.LIBRA(320, 192, 2)
	base, err := libra.NewRun(cfg, "AnB")
	if err != nil {
		t.Fatal(err)
	}
	off := base.RenderFrames(frames)

	cfg.RenderElim = true
	run, err := libra.NewRun(cfg, "AnB")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace(telemetry.TraceConfig{ClockHz: cfg.ClockHz})
	run.SetRecorder(tr)
	on := run.RenderFrames(frames)

	var skipped int64
	for _, f := range on {
		skipped += int64(f.TilesSkipped)
	}
	if skipped == 0 {
		t.Fatal("coherent profile skipped no tiles")
	}
	s := exportedMetrics(t, tr)
	if got := s.Counters["re.tiles_skipped"]; got != skipped {
		t.Errorf("re.tiles_skipped = %d but frame results report %d", got, skipped)
	}
	if hit := s.Gauges["re.hit_ratio"]; hit <= 0 || hit > 1 {
		t.Errorf("re.hit_ratio = %v, want in (0, 1]", hit)
	}
	if on[frames-1].REHitRatio <= 0 {
		t.Errorf("final frame REHitRatio = %v, want > 0", on[frames-1].REHitRatio)
	}
	var offCycles, onCycles int64
	for i := range off {
		offCycles += off[i].TotalCycles
		onCycles += on[i].TotalCycles
	}
	if onCycles >= offCycles {
		t.Errorf("RE on is not faster: %d cycles vs %d off", onCycles, offCycles)
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
