package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles returns the n-1 cut points dividing xs into n groups, computed
// exactly as Python's statistics.quantiles(xs, n=n) with its default
// 'exclusive' method. xs needs at least two values and is not modified.
func quantiles(xs []float64, n int) []float64 {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 || n < 1 {
		panic(fmt.Sprintf("quantiles: need at least 2 values and n >= 1, got %d and %d", ld, n))
	}
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/float64(n))
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the index of the enclosing span in the run's list, -1 for an op's root.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. Span
// times are read from the process CPU clock (cpuTime), as op times are. A
// nil tracer records nothing, so untraced runs pay one nil check per call
// site.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span and returns its index (the parent handle of nested
// spans); on a nil tracer it returns -1.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: cpuTime().Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) enabled() bool { return t != nil }

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = cpuTime().Nanoseconds()
}

// totals sums each span name's duration in milliseconds.
func (t *tracer) totals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS) / 1e6
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// layerCounts accumulates, over a traced run's ops, the counts the layers'
// own results report: the frame's FrameResult, or each replay pass's
// ReplayResult, and the split's binner. Fields are totals; perLayerMetrics
// divides by frames.
type layerCounts struct {
	frames        int // frames rendered or passes re-timed
	tilesRendered int
	tilesSkipped  int
	fragments     int
	primitives    int
	primRefs      int
	gpipeCycles   int64
	rasterCycles  int64
	ruUtil        float64
	texHit        float64
	texLatency    float64
	l2Hit         float64
	dramRowHit    float64
	dramLatency   float64
	energyUJ      float64
	traceBytes    int
	gcs           uint32
}

func (lc *layerCounts) addFrame(res core.FrameResult) {
	lc.frames++
	for i, n := range res.RUTiles {
		lc.tilesRendered += n
		lc.ruUtil += res.RUUtilization[i] / float64(len(res.RUTiles))
	}
	lc.tilesSkipped += res.TilesSkipped
	lc.fragments += res.Fragments
	lc.primitives += res.GeomStats.PrimsOut
	lc.gpipeCycles += res.GeometryCycles
	lc.rasterCycles += res.RasterCycles
	lc.texHit += res.TexHitRatio
	lc.texLatency += res.AvgTexLatency
	lc.l2Hit += res.L2Stats.HitRatio()
	lc.dramRowHit += res.DRAMStats.RowHitRatio()
	lc.dramLatency += res.DRAMStats.AvgLatency()
	lc.energyUJ += res.Energy.Total
}

// addPass adds what a replay pass reports; ReplayResult has no L2, DRAM
// row, energy or Raster Unit figures, so those read 0 on replay-sus.
func (lc *layerCounts) addPass(r core.ReplayResult) {
	lc.frames++
	lc.rasterCycles += r.RasterCycles
	lc.texHit += r.TexHitRatio
	lc.texLatency += r.AvgTexLatency
}

// The per-layer metrics and their units. Times are milliseconds per op;
// counts, ratios and cycles are per frame (per pass on replay-sus). A layer
// a workload never calls reads 0.
var perLayerUnits = map[string]string{
	"raster.render_ms":        "ms",
	"raster.tiles_rendered":   "count",
	"raster.fragments":        "count",
	"sim.replay_ms":           "ms",
	"sim.raster_cycles":       "cycles",
	"sim.ru_utilization":      "ratio",
	"mem.tex_hit_ratio":       "ratio",
	"mem.tex_latency_cycles":  "cycles",
	"mem.l2_hit_ratio":        "ratio",
	"mem.dram_row_hit_ratio":  "ratio",
	"mem.dram_latency_cycles": "cycles",
	"energy.uj_per_frame":     "uJ",
	"tiling.signature_ms":     "ms",
	"tiling.tiles_skipped":    "count",
	"workloads.scene_ms":      "ms",
	"gpipe.geometry_ms":       "ms",
	"gpipe.primitives":        "count",
	"gpipe.cycles":            "cycles",
	"tiling.bin_ms":           "ms",
	"tiling.prim_refs":        "count",
	"core.frame_ms":           "ms",
	"core.other_ms":           "ms",
	"trace.encode_ms":         "ms",
	"trace.decode_ms":         "ms",
	"trace.kb_per_frame":      "KB",
	"core.replay_ms":          "ms",
	"host.gc_cycles":          "count",
	"host.probe_ms":           "ms",
}

// stageSpans are the frame stages the traced run times through their own
// exported calls; core.other_ms is core.frame_ms minus their sum.
var stageSpans = []string{"gpipe.geometry", "tiling.bin", "tiling.signature", "raster.render", "sim.replay"}

// perLayerMetrics computes the per-layer metrics, span times multiplied by
// scale as the end-to-end host times are; host.probe_ms is the yardstick's
// own median time, unscaled.
func perLayerMetrics(tr *tracer, lc *layerCounts, ops int, yardMS, scale float64) map[string]metric {
	tot := tr.totals()
	m := map[string]float64{}
	for _, name := range []string{
		"raster.render", "sim.replay", "tiling.signature", "workloads.scene", "gpipe.geometry",
		"tiling.bin", "core.frame", "trace.encode", "trace.decode", "core.replay",
	} {
		m[name+"_ms"] = tot[name] / float64(ops) * scale
	}
	if tot["core.frame"] > 0 {
		other := tot["core.frame"]
		for _, s := range stageSpans {
			other -= tot[s]
		}
		m["core.other_ms"] = other / float64(ops) * scale
	}
	if f := float64(lc.frames); f > 0 {
		m["raster.tiles_rendered"] = float64(lc.tilesRendered) / f
		m["raster.fragments"] = float64(lc.fragments) / f
		m["sim.raster_cycles"] = float64(lc.rasterCycles) / f
		m["sim.ru_utilization"] = lc.ruUtil / f
		m["mem.tex_hit_ratio"] = lc.texHit / f
		m["mem.tex_latency_cycles"] = lc.texLatency / f
		m["mem.l2_hit_ratio"] = lc.l2Hit / f
		m["mem.dram_row_hit_ratio"] = lc.dramRowHit / f
		m["mem.dram_latency_cycles"] = lc.dramLatency / f
		m["energy.uj_per_frame"] = lc.energyUJ / f
		m["tiling.tiles_skipped"] = float64(lc.tilesSkipped) / f
		m["gpipe.primitives"] = float64(lc.primitives) / f
		m["gpipe.cycles"] = float64(lc.gpipeCycles) / f
		m["tiling.prim_refs"] = float64(lc.primRefs) / f
	}
	m["trace.kb_per_frame"] = float64(lc.traceBytes) / 1024 / float64(ops)
	m["host.gc_cycles"] = float64(lc.gcs) / float64(ops)
	m["host.probe_ms"] = yardMS
	return withUnits(m, perLayerUnits)
}
