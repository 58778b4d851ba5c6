package core

import (
	"fmt"

	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tiling"
	"repro/internal/trace"
)

// CaptureTrace renders the scene like RenderFrame while also capturing the
// frame's complete raster workload as a replayable trace.
func (g *GPU) CaptureTrace(sc *scene.Scene) (FrameResult, *trace.FrameTrace) {
	ft := &trace.FrameTrace{
		ScreenW: g.cfg.ScreenW,
		ScreenH: g.cfg.ScreenH,
		Tiles:   make([]raster.TileWork, g.grid.NumTiles()),
	}
	// The hook's TileWork aliases the engine's reusable scratch buffers;
	// Clone captures a stable deep copy for the trace.
	g.traceSink = func(tw raster.TileWork) { ft.Tiles[tw.TileID] = tw.Clone() }
	defer func() { g.traceSink = nil }()
	res := g.RenderFrame(sc)
	return res, ft
}

// ReplayResult is the outcome of one trace replay pass.
type ReplayResult struct {
	Pass          int
	RasterCycles  int64
	TexHitRatio   float64
	AvgTexLatency float64
	DRAMAccesses  int
	Scheduler     string
}

// ReplayTrace re-times a recorded frame workload under the given GPU
// configuration without re-rendering. Each pass re-runs the same workload
// (standing in for perfectly coherent consecutive frames): temperature-based
// policies use the previous pass's per-tile statistics, exactly as LIBRA
// uses the previous frame's.
func ReplayTrace(cfg Config, ft *trace.FrameTrace, passes int) ([]ReplayResult, error) {
	if ft.ScreenW != cfg.ScreenW || ft.ScreenH != cfg.ScreenH {
		return nil, fmt.Errorf("core: trace is %dx%d but config is %dx%d",
			ft.ScreenW, ft.ScreenH, cfg.ScreenW, cfg.ScreenH)
	}
	// The passes need only a GPU's scheduling state (buildScheduler reads the
	// grid, the adaptive controller and the previous pass's tile table): no
	// geometry pipeline, frame buffer or engine of its own.
	g := &GPU{
		cfg:      cfg,
		grid:     tiling.NewGrid(cfg.ScreenW, cfg.ScreenH),
		adaptive: sched.NewAdaptive(cfg.Adaptive),
	}
	if len(ft.Tiles) != g.grid.NumTiles() {
		return nil, fmt.Errorf("core: trace has %d tiles, grid has %d", len(ft.Tiles), g.grid.NumTiles())
	}
	hier := newHierarchy(cfg)
	eng := sim.NewEngine(cfg.Sim, g.grid, hier)

	var out []ReplayResult
	clock := int64(0)
	for pass := 0; pass < passes; pass++ {
		hier.ResetStats()
		eng.ResetFrameStats()
		scheduler, orderMode, _ := g.buildScheduler()
		tileStats := stats.NewTileTable(g.grid.TilesX, g.grid.TilesY)
		o := eng.RunRaster(sim.FrameInput{
			Works:      ft.Tiles,
			Scheduler:  scheduler,
			TileStats:  tileStats,
			StartCycle: clock,
		})
		clock += o.RasterCycles
		g.prevTiles = tileStats
		g.adaptive.Observe(sched.FrameMetrics{
			RasterCycles: o.RasterCycles,
			TexHitRatio:  o.TexHitRatio(),
		}, orderMode)
		g.frameIdx++
		out = append(out, ReplayResult{
			Pass:          pass,
			RasterCycles:  o.RasterCycles,
			TexHitRatio:   o.TexHitRatio(),
			AvgTexLatency: o.AvgTexLatency(),
			DRAMAccesses:  o.DRAMAccesses,
			Scheduler:     scheduler.Name(),
		})
	}
	return out, nil
}

// ReplayPFR re-times two consecutive frames' workloads rendered in parallel
// (Parallel Frame Rendering, related work [9]): Raster Unit i renders frame
// i in its entirety, sharing the L2 and DRAM. The returned output covers
// both frames; divide by two for a per-frame comparison against sequential
// rendering.
func ReplayPFR(cfg Config, frames []*trace.FrameTrace) (sim.FrameOutput, error) {
	if len(frames) == 0 {
		return sim.FrameOutput{}, fmt.Errorf("core: no frames to replay")
	}
	grid := tiling.NewGrid(cfg.ScreenW, cfg.ScreenH)
	// One Works slice, frame after frame: the PFR scheduler hands RU i the
	// ids i·NumTiles + t, so RU i replays frame i.
	works := make([]raster.TileWork, 0, len(frames)*grid.NumTiles())
	for i, ft := range frames {
		if ft.ScreenW != cfg.ScreenW || ft.ScreenH != cfg.ScreenH {
			return sim.FrameOutput{}, fmt.Errorf("core: frame %d is %dx%d, config is %dx%d",
				i, ft.ScreenW, ft.ScreenH, cfg.ScreenW, cfg.ScreenH)
		}
		if len(ft.Tiles) != grid.NumTiles() {
			return sim.FrameOutput{}, fmt.Errorf("core: frame %d has %d tiles, grid has %d",
				i, len(ft.Tiles), grid.NumTiles())
		}
		works = append(works, ft.Tiles...)
	}
	simCfg := cfg.Sim
	simCfg.RasterUnits = len(frames)
	eng := sim.NewEngine(simCfg, grid, newHierarchy(cfg))
	out := eng.RunRaster(sim.FrameInput{
		Works:     works,
		Scheduler: sched.NewPFR(grid, len(frames)),
	})
	return out, nil
}
