package core

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/workloads"
)

// testScreen is small enough for fast unit tests: 10x6 tiles.
const (
	testW = 320
	testH = 192
)

func renderFrames(t *testing.T, cfg Config, game string, frames int) []FrameResult {
	t.Helper()
	p, err := workloads.ByAbbrev(game)
	if err != nil {
		t.Fatal(err)
	}
	g := p.New()
	gpu := New(cfg)
	var out []FrameResult
	for f := 0; f < frames; f++ {
		out = append(out, gpu.RenderFrame(g.BuildFrame(f)))
	}
	return out
}

func TestFrameProducesWork(t *testing.T) {
	res := renderFrames(t, DefaultConfig(testW, testH), "CCS", 1)[0]
	if res.Fragments == 0 {
		t.Fatal("no fragments shaded")
	}
	if res.GeometryCycles <= 0 || res.RasterCycles <= 0 {
		t.Fatalf("cycles: geom=%d raster=%d", res.GeometryCycles, res.RasterCycles)
	}
	if res.TotalCycles != res.GeometryCycles+res.RasterCycles {
		t.Error("total cycles must be geometry + raster")
	}
	if res.DRAMStats.Accesses() == 0 {
		t.Error("frame generated no DRAM traffic")
	}
	if res.Energy.Total <= 0 {
		t.Error("no energy estimated")
	}
	if res.TileStats.TotalDRAM() == 0 {
		t.Error("per-tile DRAM census empty")
	}
	if res.PBBytes == 0 {
		t.Error("no parameter buffer usage")
	}
}

func TestSchedulingDoesNotChangeImage(t *testing.T) {
	// The core invariant: the rendered image is identical under every
	// scheduler and RU configuration.
	configs := map[string]Config{
		"baseline-8":  DefaultConfig(testW, testH),
		"ptr-2":       PTRConfig(testW, testH, 2),
		"libra-2":     LIBRAConfig(testW, testH, 2),
		"libra-4":     LIBRAConfig(testW, testH, 4),
		"static-st-4": func() Config { c := PTRConfig(testW, testH, 2); c.Mode = ModeStaticSupertile; return c }(),
		"temp-2": func() Config {
			c := PTRConfig(testW, testH, 2)
			c.Mode = ModeTemperature
			return c
		}(),
	}
	var hashes []uint64
	var names []string
	for name, cfg := range configs {
		frames := renderFrames(t, cfg, "HCR", 3)
		hashes = append(hashes, frames[2].FrameHash)
		names = append(names, name)
	}
	for i := 1; i < len(hashes); i++ {
		if hashes[i] != hashes[0] {
			t.Errorf("image hash differs between %s (%#x) and %s (%#x)",
				names[0], hashes[0], names[i], hashes[i])
		}
	}
}

func TestDeterministicSimulation(t *testing.T) {
	a := renderFrames(t, LIBRAConfig(testW, testH, 2), "SuS", 3)
	b := renderFrames(t, LIBRAConfig(testW, testH, 2), "SuS", 3)
	for i := range a {
		if a[i].TotalCycles != b[i].TotalCycles {
			t.Errorf("frame %d: cycles differ %d vs %d", i, a[i].TotalCycles, b[i].TotalCycles)
		}
		if a[i].FrameHash != b[i].FrameHash {
			t.Errorf("frame %d: hash differs", i)
		}
		if a[i].DRAMStats != b[i].DRAMStats {
			t.Errorf("frame %d: DRAM stats differ", i)
		}
	}
}

func TestIdealMemoryIsFaster(t *testing.T) {
	real := renderFrames(t, DefaultConfig(testW, testH), "CCS", 2)
	idealCfg := DefaultConfig(testW, testH)
	idealCfg.IdealMemory = true
	ideal := renderFrames(t, idealCfg, "CCS", 2)
	if ideal[1].RasterCycles >= real[1].RasterCycles {
		t.Errorf("ideal memory (%d cycles) should beat real memory (%d cycles)",
			ideal[1].RasterCycles, real[1].RasterCycles)
	}
	if ideal[1].DRAMStats.Accesses() != 0 {
		t.Error("ideal memory must not touch DRAM during raster")
	}
}

func TestMoreCoresNotSlower(t *testing.T) {
	fourCfg := DefaultConfig(testW, testH)
	fourCfg.Sim.CoresPerRU = 4
	four := renderFrames(t, fourCfg, "CCS", 2)
	eight := renderFrames(t, DefaultConfig(testW, testH), "CCS", 2)
	if eight[1].RasterCycles > four[1].RasterCycles {
		t.Errorf("8 cores (%d) slower than 4 cores (%d)",
			eight[1].RasterCycles, four[1].RasterCycles)
	}
}

func TestLIBRAUsesTemperatureAfterWarmup(t *testing.T) {
	frames := renderFrames(t, LIBRAConfig(testW, testH, 2), "CCS", 4)
	if frames[0].OrderMode != sched.ModeZOrder {
		t.Error("first frame has no history; must use Z-order")
	}
	sawTemp := false
	for _, f := range frames[1:] {
		if f.OrderMode == sched.ModeTemperature {
			sawTemp = true
		}
	}
	if !sawTemp {
		t.Error("LIBRA never engaged the temperature order on a memory-intensive game")
	}
}

func TestIntervalHistogramRecorded(t *testing.T) {
	cfg := DefaultConfig(testW, testH)
	cfg.IntervalWidth = 5000
	res := renderFrames(t, cfg, "CCS", 1)[0]
	if res.Intervals == nil {
		t.Fatal("interval histogram not recorded")
	}
	var total uint64
	for _, c := range res.Intervals.Counts {
		total += uint64(c)
	}
	if total == 0 {
		t.Error("histogram recorded no DRAM requests")
	}
	if total != res.DRAMStats.Accesses() {
		t.Errorf("histogram total %d != DRAM accesses %d", total, res.DRAMStats.Accesses())
	}
}

func TestFrameCoherenceOfTileStats(t *testing.T) {
	frames := renderFrames(t, DefaultConfig(testW, testH), "SuS", 3)
	a, b := frames[1].TileStats, frames[2].TileStats
	// Most tiles should have similar DRAM counts between consecutive frames
	// (Fig. 8's property).
	similar := 0
	total := 0
	for i := range a.DRAMAccesses {
		da, db := float64(a.DRAMAccesses[i]), float64(b.DRAMAccesses[i])
		if da == 0 && db == 0 {
			continue
		}
		total++
		hi := da
		if db > hi {
			hi = db
		}
		if hi > 0 && absf(da-db)/hi < 0.5 {
			similar++
		}
	}
	if total == 0 {
		t.Fatal("no active tiles")
	}
	if float64(similar)/float64(total) < 0.5 {
		t.Errorf("only %d/%d tiles coherent between frames", similar, total)
	}
}

func TestFPSAndModeString(t *testing.T) {
	res := renderFrames(t, DefaultConfig(testW, testH), "Jet", 1)[0]
	if fps := res.FPS(800e6); fps <= 0 {
		t.Errorf("FPS = %v", fps)
	}
	if (FrameResult{}).FPS(800e6) != 0 {
		t.Error("zero-cycle frame should report 0 FPS")
	}
	// A mode is its policy name: the string flags, requests and result
	// store keys carry.
	want := []string{"zorder", "static-supertile", "temperature", "libra",
		"hilbert", "reverse", "random", "alt-temperature"}
	if got := Modes(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Modes() = %v, want %v", got, want)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPerRUReporting(t *testing.T) {
	res := renderFrames(t, PTRConfig(testW, testH, 2), "CCS", 1)[0]
	if len(res.RUTiles) != 2 || len(res.RUUtilization) != 2 {
		t.Fatalf("per-RU reporting missing: %v %v", res.RUTiles, res.RUUtilization)
	}
	total := res.RUTiles[0] + res.RUTiles[1]
	if total != (testW/32)*(testH/32) {
		t.Errorf("RU tiles sum to %d", total)
	}
	for i, u := range res.RUUtilization {
		if u <= 0 || u > 1 {
			t.Errorf("RU %d utilization %v out of range", i, u)
		}
	}
}
