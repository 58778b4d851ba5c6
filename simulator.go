package libra

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// EnergyBreakdown is the per-frame energy split in microjoules.
type EnergyBreakdown struct {
	Core, L1, L2, DRAM, Static, Total float64
}

// FrameResult reports the measurements of one rendered frame.
type FrameResult struct {
	Frame int

	GeometryCycles int64
	RasterCycles   int64
	TotalCycles    int64
	FPS            float64

	FrameHash    uint64
	Fragments    int
	Instructions uint64

	TexHitRatio    float64
	AvgTexLatency  float64 // cycles, as observed by the shader cores
	DRAMAccesses   uint64  // total DRAM requests this frame
	DRAMAvgLatency float64
	DRAMRowHits    float64
	Replication    float64 // texture-L1 block replication (0..1)

	Energy EnergyBreakdown

	Scheduler string // policy actually used this frame
	Order     string // "zorder" or "temperature"
	Supertile int    // supertile size in effect

	// TilesSkipped counts tiles discarded by Rendering Elimination this
	// frame; REHitRatio is that count over the frame's total tile count.
	// Both are zero unless Config.RenderElim is set.
	TilesSkipped int
	REHitRatio   float64

	// RUTiles and RUUtilization report per-Raster-Unit load balance.
	RUTiles       []int
	RUUtilization []float64

	// TileDRAM is the per-tile DRAM-access heatmap of the frame, indexed
	// [tileY][tileX] (Figs. 2 and 9).
	TileDRAM [][]float64
	// Intervals holds the DRAM requests per IntervalWidth-cycle window
	// (Fig. 7) when interval recording is enabled.
	Intervals []uint32

	PBBytes uint64
}

// Run is a simulation of one benchmark on one GPU configuration. Frames are
// rendered in sequence; caches, DRAM state and the adaptive controller
// persist between frames.
type Run struct {
	cfg  Config
	gpu  *core.GPU
	game *workloads.Game
	next int
}

// NewRun builds a simulation of the named benchmark (see Benchmarks) on the
// given configuration.
func NewRun(cfg Config, benchmark string) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := workloads.ByAbbrev(benchmark)
	if err != nil {
		return nil, err
	}
	return &Run{cfg: cfg, gpu: core.New(cfg.toCore()), game: p.New()}, nil
}

// Config returns the run's configuration.
func (r *Run) Config() Config { return r.cfg }

// SetRecorder attaches a telemetry recorder (e.g. *telemetry.Trace) to the
// simulated GPU: subsequent frames emit per-RU tile spans, DRAM bank
// activity, cache hit-rate series and scheduler decisions into it. Pass nil
// to detach; a detached run is telemetry-free (zero cost on the hot path).
func (r *Run) SetRecorder(rec telemetry.Recorder) { r.gpu.SetRecorder(rec) }

// Benchmark returns the benchmark's short name.
func (r *Run) Benchmark() string { return r.game.Abbrev }

// RenderFrame renders the next frame of the benchmark's animation.
func (r *Run) RenderFrame() FrameResult {
	sc := r.game.FrameScene(r.next)
	res := r.gpu.RenderFrame(sc)
	r.next++
	return publishResult(res, r.gpu.Config().ClockHz)
}

// RenderFrames renders n frames and returns all results. It is the
// uncancellable form of RenderFramesContext.
func (r *Run) RenderFrames(n int) []FrameResult {
	out := make([]FrameResult, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.RenderFrame())
	}
	return out
}

// RenderFramesContext renders up to n frames, checking ctx at every frame
// boundary: cancellation aborts before the next frame starts, returning the
// frames already rendered together with an error wrapping ctx.Err(). A frame
// in flight always completes — frames are the simulator's atomic unit, so a
// cancelled call never leaves the run (caches, DRAM state, the adaptive
// controller) mid-frame, and rendering may resume afterwards. The error is
// nil exactly when all n frames rendered.
func (r *Run) RenderFramesContext(ctx context.Context, n int) ([]FrameResult, error) {
	out := make([]FrameResult, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("libra: render aborted at frame boundary %d/%d: %w", i, n, err)
		}
		out = append(out, r.RenderFrame())
	}
	return out, nil
}

// FramePixels returns the last rendered frame's pixels (ARGB), row-major.
func (r *Run) FramePixels() []uint32 {
	fb := r.gpu.FrameBuffer()
	out := make([]uint32, len(fb.Pixels))
	copy(out, fb.Pixels)
	return out
}

// FramePPM returns the last rendered frame as a binary PPM (P6) image.
func (r *Run) FramePPM() []byte {
	return r.gpu.FrameBuffer().PPM()
}

func publishResult(res core.FrameResult, clockHz float64) FrameResult {
	out := FrameResult{
		Frame:          res.Frame,
		GeometryCycles: res.GeometryCycles,
		RasterCycles:   res.RasterCycles,
		TotalCycles:    res.TotalCycles,
		FPS:            res.FPS(clockHz),
		FrameHash:      res.FrameHash,
		Fragments:      res.Fragments,
		Instructions:   res.Instructions,
		TexHitRatio:    res.TexHitRatio,
		AvgTexLatency:  res.AvgTexLatency,
		DRAMAccesses:   res.DRAMStats.Accesses(),
		DRAMAvgLatency: res.DRAMStats.AvgLatency(),
		DRAMRowHits:    res.DRAMStats.RowHitRatio(),
		Replication:    res.Replication,
		Energy: EnergyBreakdown{
			Core: res.Energy.Core, L1: res.Energy.L1, L2: res.Energy.L2,
			DRAM: res.Energy.DRAM, Static: res.Energy.Static, Total: res.Energy.Total,
		},
		Scheduler: res.SchedulerName,
		Order:     res.OrderMode.String(),
		Supertile: res.Supertile,
		PBBytes:   res.PBBytes,
	}
	out.TilesSkipped = res.TilesSkipped
	if res.TileStats != nil && res.TileStats.W*res.TileStats.H > 0 {
		out.REHitRatio = float64(res.TilesSkipped) / float64(res.TileStats.W*res.TileStats.H)
	}
	out.RUTiles = append(out.RUTiles, res.RUTiles...)
	out.RUUtilization = append(out.RUUtilization, res.RUUtilization...)
	out.TileDRAM = tileGrid(res.TileStats)
	if res.Intervals != nil {
		out.Intervals = append([]uint32(nil), res.Intervals.Counts...)
	}
	return out
}

func tileGrid(tt *stats.TileTable) [][]float64 {
	if tt == nil {
		return nil
	}
	out := make([][]float64, tt.H)
	for y := 0; y < tt.H; y++ {
		row := make([]float64, tt.W)
		for x := 0; x < tt.W; x++ {
			row[x] = float64(tt.DRAMAccesses[tt.Index(x, y)])
		}
		out[y] = row
	}
	return out
}

// heatmapOf copies a per-tile grid (rows of equal length) into a
// stats.Heatmap; an empty grid gives nil.
func heatmapOf(grid [][]float64) *stats.Heatmap {
	if len(grid) == 0 {
		return nil
	}
	hm := stats.NewHeatmap(len(grid[0]), len(grid))
	for y, row := range grid {
		for x, v := range row {
			hm.Set(x, y, v)
		}
	}
	return hm
}

// HeatmapASCII renders a per-tile heatmap (e.g. FrameResult.TileDRAM) as
// terminal art, one character per tile from '.' (cold) to '@' (hot).
func HeatmapASCII(grid [][]float64) string {
	hm := heatmapOf(grid)
	if hm == nil {
		return ""
	}
	return hm.ASCII()
}

// HeatmapPGM renders a per-tile heatmap as an ASCII PGM (P2) image.
func HeatmapPGM(grid [][]float64) string {
	hm := heatmapOf(grid)
	if hm == nil {
		return ""
	}
	return hm.PGM()
}

// DownsampleHeatmap aggregates a tile heatmap at supertile granularity
// (factor×factor tiles per cell, summed) — the supertile view of Fig. 9.
func DownsampleHeatmap(grid [][]float64, factor int) [][]float64 {
	hm := heatmapOf(grid)
	if hm == nil {
		return nil
	}
	d := hm.Downsample(factor)
	out := make([][]float64, d.H)
	for y := 0; y < d.H; y++ {
		out[y] = make([]float64, d.W)
		for x := 0; x < d.W; x++ {
			out[y][x] = d.At(x, y)
		}
	}
	return out
}

// RankingCycles returns the hardware cost estimate of ranking n supertiles
// (§III-E), for overhead analysis.
func RankingCycles(n int) int64 { return sched.RankingCycles(n) }

// RankTableBytes returns the on-chip ranking-table size for n supertiles.
func RankTableBytes(n int) int { return sched.RankTableBytes(n) }

// Summary aggregates a sequence of frame results.
type Summary struct {
	Frames        int
	TotalCycles   int64
	AvgFPS        float64
	AvgTexHit     float64
	AvgTexLatency float64
	DRAMAccesses  uint64
	EnergyUJ      float64
}

// Summarize aggregates frames [skip:] of a run (skip warm-up frames whose
// caches and predictors are cold).
func Summarize(frames []FrameResult, skip int) Summary {
	if skip >= len(frames) {
		return Summary{}
	}
	fs := frames[skip:]
	var s Summary
	s.Frames = len(fs)
	for _, f := range fs {
		s.TotalCycles += f.TotalCycles
		s.AvgFPS += f.FPS
		s.AvgTexHit += f.TexHitRatio
		s.AvgTexLatency += f.AvgTexLatency
		s.DRAMAccesses += f.DRAMAccesses
		s.EnergyUJ += f.Energy.Total
	}
	n := float64(len(fs))
	s.AvgFPS /= n
	s.AvgTexHit /= n
	s.AvgTexLatency /= n
	return s
}

// Speedup returns base/over as a ratio of total cycles (>1 means `over` is
// faster).
func Speedup(base, over Summary) float64 {
	if over.TotalCycles == 0 {
		return 0
	}
	return float64(base.TotalCycles) / float64(over.TotalCycles)
}

// String formats a summary for reports.
func (s Summary) String() string {
	return fmt.Sprintf("frames=%d cycles=%d fps=%.1f texHit=%.2f texLat=%.1f dram=%d energy=%.0fuJ",
		s.Frames, s.TotalCycles, s.AvgFPS, s.AvgTexHit, s.AvgTexLatency, s.DRAMAccesses, s.EnergyUJ)
}
