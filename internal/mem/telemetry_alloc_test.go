package mem

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/telemetry"
)

func allocTestHierarchy() (*Hierarchy, *cache.Cache) {
	h := NewHierarchy(cache.Config{
		Name: "L2", SizeBytes: 64 * 1024, LineBytes: 64, Ways: 8, HitLatency: 10,
	}, dram.DefaultConfig())
	l1 := cache.New(cache.Config{
		Name: "tex", SizeBytes: 4 * 1024, LineBytes: 64, Ways: 4, HitLatency: 2,
	})
	return h, l1
}

// TestDisabledTelemetryZeroAlloc pins the tentpole contract: with no Recorder
// attached, the instrumented hot path is a nil check — zero allocations per
// access.
func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	h, l1 := allocTestHierarchy()
	addr := TextureBase
	h.AccessThroughL1(l1, 0, addr, false) // warm the line so the loop stays an L1 hit
	allocs := testing.AllocsPerRun(1000, func() {
		h.AccessThroughL1(l1, 100, addr, false)
	})
	if allocs != 0 {
		t.Errorf("L1-hit access with nil Recorder allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledTelemetryCounts checks the same path feeds the recorder when one
// is attached.
func TestEnabledTelemetryCounts(t *testing.T) {
	h, l1 := allocTestHierarchy()
	tr := telemetry.NewTrace(telemetry.TraceConfig{ClockHz: 1e6})
	h.Rec = tr
	h.DRAM.SetRecorder(tr)

	addr := TextureBase
	h.AccessThroughL1(l1, 0, addr, false)   // L1 miss → L2 miss → DRAM
	h.AccessThroughL1(l1, 200, addr, false) // L1 hit

	s := exportedMetrics(t, tr)
	l1Hits := sum(s.Histograms["cache.l1.hits"].Buckets)
	l1Misses := sum(s.Histograms["cache.l1.misses"].Buckets)
	if l1Hits != 1 || l1Misses != 1 {
		t.Errorf("l1 hits/misses = %v/%v, want 1/1", l1Hits, l1Misses)
	}
	if sum(s.Histograms["cache.l2.misses"].Buckets) != 1 {
		t.Errorf("l2 misses = %v, want 1", sum(s.Histograms["cache.l2.misses"].Buckets))
	}
	if got := s.Counters["dram.reads"]; got != 1 {
		t.Errorf("dram.reads = %d, want 1", got)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
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
