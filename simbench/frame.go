package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tiling"
	"repro/internal/workloads"
)

// frameBench renders steady-state frames: an op is Game.FrameScene plus
// GPU.RenderFrame, the loop librasim runs, on the current simulation.
type frameBench struct {
	cfg     core.Config
	profile workloads.Profile
	warmup  int
	traced  bool
	// st is the in-order pixel reference. Untraced runs share one across
	// their simulations (its only per-simulation state, a clock, does not
	// reach the pixels); traced runs build a stage split for each.
	st *stages

	// The current simulation, its warm-up frames (checked after set-up)
	// and the frame it renders next.
	game  *workloads.Game
	gpu   *core.GPU
	warm  []core.FrameResult
	frame int
}

func newFrameBench(abbrev string, renderElim bool, o options) (bench, error) {
	p, err := profile(abbrev, o.seed, o.seedSet)
	if err != nil {
		return nil, err
	}
	b := &frameBench{
		cfg:     simConfig(core.ModeLIBRA, renderElim),
		profile: p,
		warmup:  experiments.DefaultParams().Warmup,
		traced:  o.trace,
	}
	if !b.traced {
		b.st = newStages(b.cfg, false)
	}
	return b, nil
}

func (b *frameBench) round() int       { return runGames }
func (b *frameBench) framesPerOp() int { return 1 }

func (b *frameBench) setUp(g int) {
	p := b.profile
	p.Seed = gameSeed(b.profile, g)
	b.game, b.gpu = p.New(), core.New(b.cfg)
	if b.traced {
		// The split starts afresh with each simulation, as the GPU does.
		// Traced runs report no setup_s.
		b.st = newStages(b.cfg, true)
	}
	for f := 0; f < b.warmup; f++ {
		b.warm = append(b.warm, b.gpu.RenderFrame(b.game.FrameScene(f)))
	}
	b.frame = b.warmup
}

func (b *frameBench) drop() {
	b.game, b.gpu, b.warm = nil, nil, nil
	if b.traced {
		b.st = nil
	}
}

// checkSetUp checks the warm-up frames' accounting. A traced run also
// passes them through its split (FrameScene is a pure function of the frame
// number), so the split's caches and signature table start where the GPU's
// do.
func (b *frameBench) checkSetUp() error {
	for f, res := range b.warm {
		if err := b.check(res, b.game.FrameScene(f), b.traced, nil, -1, -1, nil); err != nil {
			return fmt.Errorf("warm-up frame %d: %w", res.Frame, err)
		}
	}
	return nil
}

// pixelCheckEvery spaces an untraced run's pixel checks: the reference
// render costs about as much as the frame, and every op's accounting is
// checked regardless. Traced runs render the reference for every op.
const pixelCheckEvery = 4

func (b *frameBench) op(i int, tr *tracer, lc *layerCounts) (opSample, error) {
	// The op's root span also covers its check; the op's own time is the
	// meter's.
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	var m meter
	m.start()
	sp := tr.begin("workloads.scene", i, root)
	sc := b.game.FrameScene(b.frame)
	tr.end(sp)
	sp = tr.begin("core.frame", i, root)
	res := b.gpu.RenderFrame(sc)
	tr.end(sp)
	smp := m.stop()
	b.frame++
	smp.cycles = float64(res.TotalCycles)
	smp.dram = float64(res.DRAMStats.Accesses())
	if lc != nil {
		lc.gcs += smp.gcs
		lc.addFrame(res)
	}
	return smp, b.check(res, sc, tr.enabled() || i%pixelCheckEvery == 0, tr, i, root, lc)
}

// check checks a rendered frame's accounting and, with pixels, its pixels
// against the reference's in-order functional render of the same scene.
func (b *frameBench) check(res core.FrameResult, sc *scene.Scene, pixels bool, tr *tracer, op, parent int, lc *layerCounts) error {
	if err := checkFrame(b.cfg, b.gpu.Grid(), res); err != nil {
		return err
	}
	if !pixels {
		return nil
	}
	return b.st.frame(sc, res, tr, op, parent, lc)
}

// stages runs a frame's stages itself through their exported calls, with
// its own pipeline, binner, renderer and, when split, engine. Every run
// uses it as the pixel reference: every tile, in tile order, into a cleared
// frame buffer. Pixels must not depend on tile order, Raster Unit count or
// Rendering Elimination. A traced run also uses it, split, as the per-stage
// clock: it signs tiles (with Rendering Elimination on) and replays the
// rendered tile work through its engine under the frame's own scheduler.
// Its memory hierarchy is its own, so the per-layer counts come from the
// frame's results, not from the split.
type stages struct {
	cfg   core.Config
	grid  tiling.Grid
	pipe  *gpipe.Pipeline
	bin   tiling.Binner
	rend  *raster.Renderer
	fb    *raster.FrameBuffer
	works []raster.TileWork // one scratch slot, or one per tile when split
	clock int64

	// The split's engine and per-simulation state: its memory, its
	// signature tables, and the GPU's previous tile census, which ranks
	// supertiles for the frame's scheduler.
	hier            *mem.Hierarchy
	eng             *sim.Engine // nil unless split
	tiles           *stats.TileTable
	prevTiles       *stats.TileTable
	sigPrev, sigCur []uint64
	skip            []bool
	sigValid        bool
}

func newStages(cfg core.Config, split bool) *stages {
	grid := tiling.NewGrid(cfg.ScreenW, cfg.ScreenH)
	hier := mem.NewHierarchy(cfg.L2, cfg.DRAM)
	st := &stages{
		cfg:   cfg,
		grid:  grid,
		pipe:  gpipe.New(cfg.Geometry, cfg.VertexCache, hier),
		rend:  raster.NewRenderer(grid),
		fb:    raster.NewFrameBuffer(cfg.ScreenW, cfg.ScreenH),
		works: make([]raster.TileWork, 1),
		hier:  hier,
	}
	st.rend.SetFiltering(cfg.Sim.Filtering)
	if split {
		st.works = make([]raster.TileWork, grid.NumTiles())
		st.eng = sim.NewEngine(cfg.Sim, grid, hier)
		st.tiles = stats.NewTileTable(grid.TilesX, grid.TilesY)
		st.skip = make([]bool, grid.NumTiles())
	}
	return st
}

// work is tile t's work slot: the reference alone needs no tile's work once
// the tile is rendered, the split replays them all.
func (st *stages) work(t int) *raster.TileWork {
	if st.eng == nil {
		return &st.works[0]
	}
	return &st.works[t]
}

// frame renders sc stage by stage and checks it against res, the GPU's
// frame of the same scene: its pixels and, when split, its Rendering
// Elimination skip set. It records each stage's span in tr and the binned
// primitive references in lc when they are non-nil. The tiles the split's
// own signatures skip are rendered after the raster span closes, so the
// hash always covers every tile.
func (st *stages) frame(sc *scene.Scene, res core.FrameResult, tr *tracer, op, parent int, lc *layerCounts) error {
	sp := tr.begin("gpipe.geometry", op, parent)
	prims, gst := st.pipe.Run(sc, st.cfg.ScreenW, st.cfg.ScreenH, st.clock)
	tr.end(sp)
	sp = tr.begin("tiling.bin", op, parent)
	lists := st.bin.Bin(st.grid, prims)
	tr.end(sp)
	st.clock += gst.Cycles

	var skip []bool
	if st.eng != nil && st.cfg.RenderElim {
		sp = tr.begin("tiling.signature", op, parent)
		st.sigCur = tiling.AppendTileSignatures(st.sigCur[:0], lists, prims, sc, uint64(st.cfg.Sim.Filtering))
		if st.sigValid {
			for t, sig := range st.sigCur {
				st.skip[t] = sig == st.sigPrev[t]
			}
			skip = st.skip
		}
		tr.end(sp)
		st.sigPrev, st.sigCur = st.sigCur, st.sigPrev
		st.sigValid = true
	}

	st.fb.Clear(0)
	skipped := 0
	sp = tr.begin("raster.render", op, parent)
	for t, refs := range lists.Lists {
		if skip == nil || !skip[t] {
			st.rend.RenderTileInto(st.work(t), sc, prims, refs, t, st.fb)
		}
	}
	tr.end(sp)
	for t, refs := range lists.Lists {
		if skip != nil && skip[t] {
			st.rend.RenderTileInto(st.work(t), sc, prims, refs, t, st.fb)
			skipped++
		}
	}
	if hash := st.fb.Hash(); hash != res.FrameHash {
		return fmt.Errorf("frame %d: in-order functional render hashes %#x, RenderFrame %#x", res.Frame, hash, res.FrameHash)
	}
	if st.eng == nil {
		return nil
	}
	if skipped != res.TilesSkipped {
		return fmt.Errorf("frame %d: the split's signatures skip %d tiles, RenderFrame %d", res.Frame, skipped, res.TilesSkipped)
	}
	s, err := st.scheduler(res)
	if err != nil {
		return err
	}
	st.replay(st.works, skip, s, tr, op, parent)
	st.prevTiles = res.TileStats
	if lc != nil {
		lc.primRefs += lists.Binned
	}
	return nil
}

// scheduler rebuilds the scheduler RenderFrame chose for res under LIBRA:
// Z-order dispatch, or hot/cold supertile dispatch ranked by the previous
// frame's tile census.
func (st *stages) scheduler(res core.FrameResult) (sched.Scheduler, error) {
	var s sched.Scheduler = sched.NewZOrderQueue(st.grid)
	if res.OrderMode == sched.ModeTemperature {
		super := tiling.NewSupertileGrid(st.grid, res.Supertile)
		s = sched.NewTemperature(super, sched.RankSupertiles(super, st.prevTiles), st.cfg.Sim.RasterUnits)
	}
	if s.Name() != res.SchedulerName {
		return nil, fmt.Errorf("frame %d: the split rebuilt scheduler %q, RenderFrame used %q", res.Frame, s.Name(), res.SchedulerName)
	}
	return s, nil
}

// replay times the engine over pre-rendered tile work under scheduler s,
// from the stages' clock, opening a frame's statistics windows first as
// RenderFrame does.
func (st *stages) replay(works []raster.TileWork, skip []bool, s sched.Scheduler, tr *tracer, op, parent int) {
	st.hier.ResetStats()
	st.eng.ResetFrameStats()
	st.pipe.VertexCache().ResetStats()
	st.tiles.Reset()
	sp := tr.begin("sim.replay", op, parent)
	out := st.eng.RunRaster(sim.FrameInput{
		Works:      works,
		Skip:       skip,
		Scheduler:  s,
		TileStats:  st.tiles,
		StartCycle: st.clock,
	})
	tr.end(sp)
	st.clock += out.RasterCycles
}
