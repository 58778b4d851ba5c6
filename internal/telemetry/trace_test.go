package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// drive replays a small synthetic frame into tr. With ClockHz 1e6 one cycle
// is exactly one trace microsecond, so the golden file is readable.
func drive(tr *Trace) {
	tr.BeginFrame(0, 0)
	tr.SchedDecision(0, "libra", "zorder", 2)
	tr.TileAssigned(0, 0)
	tr.TileAssigned(1, 1)
	tr.CacheAccess(CacheL1, 5, true)
	tr.CacheAccess(CacheL1, 15, false)
	tr.CacheAccess(CacheL2, 15, true)
	tr.DRAMAccess(0, 0, 10, 60, false, false, 1)
	tr.DRAMAccess(1, 3, 20, 70, true, true, 2)
	tr.TileSpan(0, 0, 0, 120, 4, 1)
	tr.TileSpan(1, 1, 0, 150, 6, 1)
	tr.TileSpan(0, 2, 130, 140, 2, 0)
	tr.EndFrame(150)
}

func newTestTrace() *Trace {
	return NewTrace(TraceConfig{ClockHz: 1e6, MetricsInterval: 100})
}

func TestTraceGolden(t *testing.T) {
	tr := newTestTrace()
	drive(tr)

	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s (re-run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}

	var metrics bytes.Buffer
	if err := tr.ExportMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	goldenMetrics := filepath.Join("testdata", "golden_metrics.json")
	if *update {
		if err := os.WriteFile(goldenMetrics, metrics.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantMetrics, err := os.ReadFile(goldenMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metrics.Bytes(), wantMetrics) {
		t.Errorf("metrics differ from %s (re-run with -update to regenerate)\ngot:\n%s", goldenMetrics, metrics.String())
	}
}

// TestTraceRoundTrip checks the export is well-formed JSON in the Chrome
// trace-event object format and that the expected tracks are present.
func TestTraceRoundTrip(t *testing.T) {
	tr := newTestTrace()
	drive(tr)
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	ruSpans := map[int]int{}
	bankTracks := map[int]bool{}
	var frames, instants, counters int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == pidRU:
			ruSpans[ev.Tid]++
		case ev.Ph == "X" && ev.Pid == pidDRAM:
			bankTracks[ev.Tid] = true
		case ev.Ph == "X" && ev.Pid == pidFrame:
			frames++
		case ev.Ph == "i":
			instants++
		case ev.Ph == "C":
			counters++
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Errorf("negative duration in %+v", ev)
		}
	}
	if ruSpans[0] != 2 || ruSpans[1] != 1 {
		t.Errorf("RU spans = %v, want map[0:2 1:1]", ruSpans)
	}
	if len(bankTracks) != 2 {
		t.Errorf("DRAM bank tracks = %v, want 2 tracks", bankTracks)
	}
	if frames != 1 || instants != 1 {
		t.Errorf("frames = %d instants = %d, want 1 and 1", frames, instants)
	}
	if counters == 0 {
		t.Error("no counter events (queue depth / hit rate) in export")
	}
}

func TestTraceMetrics(t *testing.T) {
	tr := newTestTrace()
	drive(tr)
	s := tr.reg.Snapshot()

	for name, want := range map[string]int64{
		"frames":          1,
		"ru0.busy_cycles": 130, // 120 + 10
		"ru0.idle_cycles": 20,  // 10 between tiles + 10 tail
		"ru0.tiles":       2,
		"ru1.busy_cycles": 150,
		"ru1.idle_cycles": 0,
		"ru1.tiles":       1,
		"sched.assigned":  2,
		"sched.decisions": 1,
		"dram.reads":      1,
		"dram.writes":     1,
		"dram.row_hits":   1,
		"dram.row_misses": 1,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauges["sched.supertile"]; got != 2 {
		t.Errorf("gauge sched.supertile = %v, want 2", got)
	}
	if h, ok := s.Histograms["dram.ch1.bank3.requests"]; !ok || h.WidthCycles != 100 {
		t.Errorf("per-bank histogram missing or wrong width: %+v", h)
	}
	if h := s.Histograms["cache.l1.hits"]; len(h.Buckets) == 0 || h.Buckets[0] != 1 {
		t.Errorf("cache.l1.hits buckets = %v, want first bucket 1", h.Buckets)
	}
}

func TestTraceMaxEvents(t *testing.T) {
	tr := NewTrace(TraceConfig{ClockHz: 1e6, MaxEvents: 4})
	tr.BeginFrame(0, 0)
	for i := 0; i < 10; i++ {
		tr.TileSpan(0, i, int64(i*10), int64(i*10+5), 1, 0)
	}
	tr.EndFrame(100)
	if got := len(tr.events); got != 4 {
		t.Errorf("retained events = %d, want 4 (MaxEvents)", got)
	}
	if got := tr.dropped; got != 7 { // 6 spans + the frame span
		t.Errorf("dropped = %d, want 7", got)
	}
	// The registry keeps counting even after the event cap.
	if got := tr.reg.Snapshot().Counters["ru0.tiles"]; got != 10 {
		t.Errorf("ru0.tiles = %d, want 10", got)
	}
	// Both exports report the drops: the trace in its otherData, the
	// metrics as a counter.
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]int `json:"otherData"`
		TraceEvents []Event        `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("capped export is not valid JSON: %v", err)
	}
	if got := doc.OtherData["dropped_events"]; got != 7 {
		t.Errorf("trace otherData dropped_events = %d, want 7", got)
	}
	var metrics bytes.Buffer
	if err := tr.ExportMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]int64 }
	if err := json.Unmarshal(metrics.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["trace.dropped_events"]; got != 7 {
		t.Errorf("metrics counter trace.dropped_events = %d, want 7", got)
	}
}

// TestTraceConcurrent drives one shared Trace from several goroutines, as the
// parallel experiment pool does. Run under -race this is the data-race gate.
func TestTraceConcurrent(t *testing.T) {
	tr := newTestTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr.BeginFrame(g, 0)
			for i := 0; i < 200; i++ {
				c := int64(i * 10)
				tr.TileSpan(g, i, c, c+5, 1, 1)
				tr.TileAssigned(g, i)
				tr.DRAMAccess(g%2, i%8, c, c+50, i%2 == 0, i%3 == 0, i%4)
				tr.CacheAccess(CacheL1, c, i%2 == 0)
				tr.CacheAccess(CacheL2, c, i%5 == 0)
				tr.SchedDecision(c, "libra", "zorder", 2)
			}
			tr.EndFrame(2000)
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("concurrent export is not valid JSON")
	}
	s := tr.reg.Snapshot()
	if got := s.Counters["sched.assigned"]; got != 8*200 {
		t.Errorf("sched.assigned = %d, want %d", got, 8*200)
	}
}

func TestTraceConfigDefaults(t *testing.T) {
	cfg := TraceConfig{}.withDefaults()
	if cfg.ClockHz != 800e6 || cfg.MetricsInterval != 5000 || cfg.MaxEvents != 1<<20 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestTraceTileSkipped checks the Rendering Elimination instrumentation: the
// skip counter, the running hit-ratio gauge, and one instant event per
// discarded tile — and that a trace with no skips exports no re.* metrics at
// all, so RE-off runs stay byte-identical to the committed goldens.
func TestTraceTileSkipped(t *testing.T) {
	tr := newTestTrace()
	tr.BeginFrame(0, 0)
	tr.TileSkipped(0, 1, 4)
	tr.TileSkipped(1, 2, 4)
	tr.TileSpan(0, 0, 4, 100, 3, 1)
	tr.EndFrame(120)

	s := tr.reg.Snapshot()
	if got := s.Counters["re.tiles_skipped"]; got != 2 {
		t.Errorf("re.tiles_skipped = %d, want 2", got)
	}
	if got, want := s.Gauges["re.hit_ratio"], 2.0/3.0; got != want {
		t.Errorf("re.hit_ratio = %v, want %v", got, want)
	}

	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	instants := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "re" && ev.Ph == "i" {
			instants++
		}
	}
	if instants != 2 {
		t.Errorf("%d re instant events, want 2", instants)
	}

	// No skips → no re.* registry entries.
	clean := newTestTrace()
	drive(clean)
	cs := clean.reg.Snapshot()
	if _, ok := cs.Counters["re.tiles_skipped"]; ok {
		t.Error("skip-free trace materialized re.tiles_skipped")
	}
	if _, ok := cs.Gauges["re.hit_ratio"]; ok {
		t.Error("skip-free trace materialized re.hit_ratio")
	}
}
