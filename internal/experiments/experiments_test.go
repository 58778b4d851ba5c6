package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// tinyParams keeps experiment tests fast.
func tinyParams() Params {
	return Params{ScreenW: 256, ScreenH: 160, Frames: 4, Warmup: 1, L2KB: 256}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(tinyParams())
	a := r.Run(r.Baseline(), "Jet")
	b := r.Run(r.Baseline(), "Jet")
	if a != b {
		t.Error("identical configurations should be memoized")
	}
	c := r.Run(r.PTR(2), "Jet")
	if a == c {
		t.Error("different configurations must not collide in the cache")
	}
}

func TestResultTableAndExports(t *testing.T) {
	res := &Result{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Label: "g1", Values: []float64{1, 2}},
			{Label: "g2", Values: []float64{3, 4}},
		},
		Headline: map[string]float64{"metric": 5},
		Art:      "##\n",
	}
	tbl := res.Table()
	for _, want := range []string{"== x: test ==", "g1", "g2", "metric", "##"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
	md := res.Markdown()
	if !strings.Contains(md, "| g1 | 1.000 | 2.000 |") {
		t.Errorf("markdown table malformed:\n%s", md)
	}
	if !strings.Contains(md, "**metric**") {
		t.Error("markdown missing headline")
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["id"] != "x" {
		t.Error("json id wrong")
	}
}

func TestFig07RunsAtTinyScale(t *testing.T) {
	r := NewRunner(tinyParams())
	res := r.Fig07Intervals()
	if res.Headline["intervals"] <= 0 {
		t.Error("no intervals recorded")
	}
	if res.Headline["peak_requests"] < res.Headline["mean_requests"] {
		t.Error("peak below mean")
	}
}

func TestFig08RunsAtTinyScale(t *testing.T) {
	// Restrict to a couple of games by running the underlying logic via a
	// runner with tiny params — Fig08 walks the whole suite, so this is the
	// slowest tiny test; keep the scale minimal.
	if testing.Short() {
		t.Skip("suite-wide experiment")
	}
	r := NewRunner(tinyParams())
	res := r.Fig08Coherence()
	if res.Headline["tiles_below_20pct_diff"] < 50 {
		t.Errorf("frame coherence too weak: %+v", res.Headline)
	}
}

func TestRankingOverheadExperiment(t *testing.T) {
	r := NewRunner(tinyParams())
	res := r.RankingOverhead()
	if res.Headline["table_bytes_510"] != 4080 {
		t.Error("wrong rank table size")
	}
}

func TestSmoothingBurstinessHelper(t *testing.T) {
	cv, peak, avg := burstiness(nil)
	if cv != 0 || peak != 0 || avg != 0 {
		t.Error("empty input should yield zeros")
	}
	cv, peak, avg = burstiness([]uint32{5, 5, 5, 5})
	if cv != 0 || peak != 5 || avg != 5 {
		t.Errorf("uniform input: cv=%v peak=%v mean=%v", cv, peak, avg)
	}
	cvB, peakB, avgB := burstiness([]uint32{0, 0, 0, 20})
	if cvB <= cv || peakB != 20 || avgB != 5 {
		t.Errorf("bursty input should have higher CV: cv=%v peak=%v mean=%v", cvB, peakB, avgB)
	}
}

func TestHeatmapFiguresAtTinyScale(t *testing.T) {
	r := NewRunner(tinyParams())
	f2 := r.Fig02Heatmap()
	if f2.Art == "" || f2.Headline["hottest_tile"] <= 0 {
		t.Error("fig02 produced no heatmap")
	}
	f9 := r.Fig09Supertiles()
	if f9.Headline["adjacent_tile_contrast"] >= f9.Headline["random_tile_contrast"] {
		t.Error("hot regions should cluster: adjacent contrast must be below random")
	}
}

func TestTable02AtTinyScale(t *testing.T) {
	r := NewRunner(tinyParams())
	res := r.Table02Benchmarks()
	if len(res.Rows) != 32 {
		t.Fatalf("table02 rows = %d", len(res.Rows))
	}
	if res.Headline["avg_footprint_MB"] < 4 {
		t.Errorf("suite average footprint %.1f MB below Table II's 4 MB",
			res.Headline["avg_footprint_MB"])
	}
}

func TestRankingHiddenAtTinyScale(t *testing.T) {
	r := NewRunner(tinyParams())
	res := r.RankingOverhead()
	if res.Headline["frames_hidden_pct"] < 99 {
		t.Errorf("ranking should hide under geometry: %.1f%% hidden",
			res.Headline["frames_hidden_pct"])
	}
}
