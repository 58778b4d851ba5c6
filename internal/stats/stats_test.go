package stats

import (
	"strings"
	"testing"
)

func TestTileTableCounters(t *testing.T) {
	tt := NewTileTable(4, 3)
	if got := tt.Index(3, 2); got != 11 {
		t.Errorf("Index(3,2) = %d", got)
	}
	tt.AddDRAM(5, 10)
	tt.AddInstructions(5, 100)
	if tt.DRAMAccesses[5] != 10 || tt.Instructions[5] != 100 {
		t.Error("counter updates lost")
	}
	if tt.TotalDRAM() != 10 {
		t.Errorf("TotalDRAM = %d", tt.TotalDRAM())
	}
}

func TestTileTableCloneIsDeep(t *testing.T) {
	tt := NewTileTable(2, 2)
	tt.AddDRAM(0, 5)
	c := tt.Clone()
	tt.AddDRAM(0, 5)
	if c.DRAMAccesses[0] != 5 {
		t.Error("clone shares storage with original")
	}
	tt.Reset()
	if tt.TotalDRAM() != 0 || tt.Instructions[0] != 0 {
		t.Error("reset incomplete")
	}
}

func TestIntervalHistogram(t *testing.T) {
	h := NewIntervalHistogram(100)
	h.Record(0)
	h.Record(99)
	h.Record(100)
	h.Record(250)
	if len(h.Counts) != 3 {
		t.Fatalf("windows = %d, want 3", len(h.Counts))
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	h.Record(-5) // clamps to window 0
	if h.Counts[0] != 3 {
		t.Error("negative cycle should clamp to first window")
	}
}

func TestIntervalHistogramPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width 0")
		}
	}()
	NewIntervalHistogram(0)
}

func TestHeatmapRendering(t *testing.T) {
	m := NewHeatmap(3, 2)
	m.Set(0, 0, 0)
	m.Set(2, 1, 100)
	if m.Max() != 100 {
		t.Errorf("Max = %v", m.Max())
	}
	art := m.ASCII()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 3 {
		t.Fatalf("ASCII shape wrong: %q", art)
	}
	if lines[1][2] != '@' {
		t.Errorf("hottest tile should render '@', got %q", lines[1][2])
	}
	if lines[0][0] != '.' {
		t.Errorf("cold tile should render '.', got %q", lines[0][0])
	}
	pgm := m.PGM()
	if !strings.HasPrefix(pgm, "P2\n3 2\n255\n") {
		t.Errorf("PGM header wrong: %q", pgm[:20])
	}
	if !strings.Contains(pgm, "255") {
		t.Error("PGM missing max value")
	}
}

func TestHeatmapAllZero(t *testing.T) {
	m := NewHeatmap(2, 2)
	if !strings.HasPrefix(m.ASCII(), "..") {
		t.Error("zero heatmap should render all '.'")
	}
}

func TestHeatmapDownsample(t *testing.T) {
	m := NewHeatmap(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			m.Set(x, y, 1)
		}
	}
	d := m.Downsample(2)
	if d.W != 2 || d.H != 2 {
		t.Fatalf("downsample dims = %dx%d", d.W, d.H)
	}
	for _, v := range d.Values {
		if v != 4 {
			t.Errorf("each 2x2 cell should sum to 4, got %v", v)
		}
	}
	// Non-divisible size rounds up.
	m2 := NewHeatmap(5, 3)
	d2 := m2.Downsample(2)
	if d2.W != 3 || d2.H != 2 {
		t.Errorf("rounded dims = %dx%d, want 3x2", d2.W, d2.H)
	}
}
