package libra

import (
	"math"
	"strings"
	"testing"
)

const (
	tw = 320
	th = 192
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(tw, th).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{ScreenW: 0, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 0, CoresPerRU: 1},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, Policy: "bogus"},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, SupertileSize: 3},
		// L2 sizes no cache can be built from: a set count that is not a
		// power of two (576 KiB, 3 KiB), and a negative size.
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, L2KB: 576},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, L2KB: 3},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, L2KB: -5},
		// Sizes above MaxL2KB: a power of two, whose cache could be built
		// but would allocate its tag arrays unchecked, and one whose byte
		// count overflows an int.
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, L2KB: 2 * MaxL2KB},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, L2KB: math.MaxInt},
		// Worker counts outside [0, MaxSimWorkers]. Validate only compares:
		// no farm is built.
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, SimWorkers: -1},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, SimWorkers: MaxSimWorkers + 1},
		{ScreenW: 100, ScreenH: 100, RasterUnits: 1, CoresPerRU: 1, SimWorkers: math.MaxInt},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	for _, kb := range []int{0, 256, 512, 1024, 2048, MaxL2KB} {
		cfg := DefaultConfig(tw, th)
		cfg.L2KB = kb
		if err := cfg.Validate(); err != nil {
			t.Errorf("L2KB %d refused: %v", kb, err)
		}
	}
	for _, n := range []int{0, 1, 4, MaxSimWorkers} {
		cfg := DefaultConfig(tw, th)
		cfg.SimWorkers = n
		if err := cfg.Validate(); err != nil {
			t.Errorf("SimWorkers %d refused: %v", n, err)
		}
	}
}

func TestPresets(t *testing.T) {
	b := Baseline(tw, th, 8)
	if b.RasterUnits != 1 || b.CoresPerRU != 8 || b.Policy != PolicyZOrder {
		t.Errorf("baseline preset = %+v", b)
	}
	p := PTR(tw, th, 2)
	if p.RasterUnits != 2 || p.CoresPerRU != 4 {
		t.Errorf("ptr preset = %+v", p)
	}
	l := LIBRA(tw, th, 2)
	if l.Policy != PolicyLIBRA {
		t.Errorf("libra preset = %+v", l)
	}
}

func TestNewRunErrors(t *testing.T) {
	if _, err := NewRun(Config{}, "SuS"); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := NewRun(DefaultConfig(tw, th), "NOPE"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestRunRendersFrames(t *testing.T) {
	r, err := NewRun(LIBRA(tw, th, 2), "CCS")
	if err != nil {
		t.Fatal(err)
	}
	frames := r.RenderFrames(3)
	if len(frames) != 3 {
		t.Fatal("wrong frame count")
	}
	for i, f := range frames {
		if f.Frame != i {
			t.Errorf("frame %d numbered %d", i, f.Frame)
		}
		if f.TotalCycles <= 0 || f.FPS <= 0 {
			t.Errorf("frame %d has no timing", i)
		}
		if f.Fragments == 0 {
			t.Errorf("frame %d has no activity", i)
		}
		// At this tiny test screen the working set fits in L2 after frame
		// 0, so only the cold frame is guaranteed DRAM traffic.
		if i == 0 && f.DRAMAccesses == 0 {
			t.Error("cold frame must touch DRAM")
		}
		if f.Energy.Total <= 0 {
			t.Errorf("frame %d has no energy", i)
		}
		if len(f.TileDRAM) == 0 || len(f.TileDRAM[0]) == 0 {
			t.Errorf("frame %d missing tile heatmap", i)
		}
	}
	if r.Benchmark() != "CCS" {
		t.Error("wrong benchmark name")
	}
	px := r.FramePixels()
	if len(px) != tw*th {
		t.Errorf("pixels = %d, want %d", len(px), tw*th)
	}
}

func TestBenchmarksCatalog(t *testing.T) {
	all := Benchmarks()
	if len(all) != 32 {
		t.Fatalf("suite = %d, want 32", len(all))
	}
	mem := MemoryIntensiveBenchmarks()
	comp := ComputeIntensiveBenchmarks()
	if len(mem) != 16 || len(comp) != 16 {
		t.Fatalf("split = %d/%d", len(mem), len(comp))
	}
	for _, b := range all {
		if b.FootprintMB <= 0 {
			t.Errorf("%s: no footprint", b.Abbrev)
		}
	}
}

func TestSummarize(t *testing.T) {
	r, _ := NewRun(Baseline(tw, th, 8), "Jet")
	frames := r.RenderFrames(4)
	s := Summarize(frames, 1)
	if s.Frames != 3 {
		t.Errorf("frames = %d, want 3", s.Frames)
	}
	if s.TotalCycles <= 0 || s.AvgFPS <= 0 {
		t.Error("summary empty")
	}
	if Summarize(frames, 10).Frames != 0 {
		t.Error("over-skip should yield empty summary")
	}
	if !strings.Contains(s.String(), "frames=3") {
		t.Error("summary formatting broken")
	}
	if Speedup(s, Summary{}) != 0 {
		t.Error("speedup over empty should be 0")
	}
	if Speedup(s, s) != 1 {
		t.Error("self speedup should be 1")
	}
}

func TestHeatmapHelpers(t *testing.T) {
	grid := [][]float64{{0, 1}, {2, 3}}
	art := HeatmapASCII(grid)
	if !strings.Contains(art, "@") {
		t.Error("ASCII heatmap missing hot marker")
	}
	pgm := HeatmapPGM(grid)
	if !strings.HasPrefix(pgm, "P2\n2 2\n") {
		t.Errorf("PGM header: %q", pgm[:10])
	}
	d := DownsampleHeatmap(grid, 2)
	if len(d) != 1 || len(d[0]) != 1 || d[0][0] != 6 {
		t.Errorf("downsample = %v", d)
	}
	if HeatmapASCII(nil) != "" || HeatmapPGM(nil) != "" || DownsampleHeatmap(nil, 2) != nil {
		t.Error("empty heatmaps should render empty")
	}
}

func TestRankingHelpers(t *testing.T) {
	if RankingCycles(510) <= 0 || RankingCycles(510) > 13800 {
		t.Errorf("ranking cycles = %d", RankingCycles(510))
	}
	if RankTableBytes(510) != 4080 {
		t.Errorf("rank table = %d bytes", RankTableBytes(510))
	}
}

func TestIntervalRecordingViaPublicAPI(t *testing.T) {
	cfg := Baseline(tw, th, 8)
	cfg.IntervalWidth = 5000
	r, _ := NewRun(cfg, "CCS")
	f := r.RenderFrame()
	if len(f.Intervals) == 0 {
		t.Fatal("no intervals recorded")
	}
	var total uint64
	for _, c := range f.Intervals {
		total += uint64(c)
	}
	if total != f.DRAMAccesses {
		t.Errorf("interval total %d != DRAM accesses %d", total, f.DRAMAccesses)
	}
}

func TestPublicDeterminism(t *testing.T) {
	run := func() FrameResult {
		r, _ := NewRun(LIBRA(tw, th, 2), "HCR")
		return r.RenderFrames(3)[2]
	}
	a, b := run(), run()
	if a.TotalCycles != b.TotalCycles || a.FrameHash != b.FrameHash {
		t.Error("public API must be deterministic")
	}
}

func TestThresholdOverridesAccepted(t *testing.T) {
	cfg := LIBRA(tw, th, 2)
	cfg.HitRatioThreshold = 0.5
	cfg.OrderSwitchThreshold = 0.05
	cfg.SupertileResizeThreshold = 0.01
	cfg.SupertileSize = 8
	r, err := NewRun(cfg, "CCS")
	if err != nil {
		t.Fatal(err)
	}
	f := r.RenderFrames(2)[1]
	if f.TotalCycles <= 0 {
		t.Error("custom thresholds broke simulation")
	}
}

func TestFilteringConfig(t *testing.T) {
	bad := DefaultConfig(tw, th)
	bad.Filtering = "anisotropic"
	if bad.Validate() == nil {
		t.Error("unknown filtering accepted")
	}
	for _, f := range []string{"", "nearest", "bilinear", "trilinear"} {
		cfg := Baseline(tw, th, 8)
		cfg.Filtering = f
		r, err := NewRun(cfg, "HCR")
		if err != nil {
			t.Fatalf("filtering %q: %v", f, err)
		}
		res := r.RenderFrame()
		if res.Fragments == 0 {
			t.Errorf("filtering %q produced no work", f)
		}
	}
}

func TestFilteringIncreasesTraffic(t *testing.T) {
	run := func(filter string) uint64 {
		cfg := Baseline(tw, th, 8)
		cfg.Filtering = filter
		r, _ := NewRun(cfg, "CCS")
		fr := r.RenderFrames(2)
		return fr[0].DRAMAccesses + fr[1].DRAMAccesses
	}
	nearest := run("nearest")
	trilinear := run("trilinear")
	if trilinear <= nearest {
		t.Errorf("trilinear DRAM (%d) should exceed nearest (%d)", trilinear, nearest)
	}
}

func TestExtensionFlagsRun(t *testing.T) {
	cfg := LIBRA(tw, th, 2)
	cfg.PrefetchTexture = true
	cfg.DRAMRefresh = true
	cfg.PostedWrites = true
	r, err := NewRun(cfg, "SuS")
	if err != nil {
		t.Fatal(err)
	}
	f := r.RenderFrames(2)[1]
	if f.TotalCycles <= 0 {
		t.Error("extension flags broke the simulation")
	}
}

func TestAblationPoliciesViaPublicAPI(t *testing.T) {
	for _, p := range []Policy{PolicyHilbert, PolicyReverse, PolicyRandom, PolicyAltTemperature} {
		cfg := PTR(tw, th, 2)
		cfg.Policy = p
		r, err := NewRun(cfg, "Jet")
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if f := r.RenderFrame(); f.Fragments == 0 {
			t.Errorf("%s produced no work", p)
		}
	}
}

func TestFramePPM(t *testing.T) {
	r, _ := NewRun(Baseline(tw, th, 8), "CCS")
	r.RenderFrame()
	ppm := r.FramePPM()
	want := len("P6\n320 192\n255\n") + tw*th*3
	if len(ppm) != want {
		t.Errorf("PPM size = %d, want %d", len(ppm), want)
	}
	if string(ppm[:2]) != "P6" {
		t.Error("bad PPM header")
	}
}
