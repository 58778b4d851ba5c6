// Package core assembles the complete simulated GPU: Geometry Pipeline →
// Tiling Engine → tile scheduler → parallel Raster Units over the shared
// memory hierarchy, with per-frame statistics, the adaptive LIBRA
// controller, and energy estimation.
package core

import (
	"slices"

	"repro/internal/energy"
	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// Mode names the tile scheduling policy of the GPU; the public
// libra.Policy names are these strings.
type Mode string

// Scheduling modes.
const (
	// ModeZOrder is the conventional scheduler: one shared Z-order tile
	// queue. With RasterUnits=1 this is the paper's baseline GPU; with
	// more, it is PTR with interleaved dispatch (§III-A).
	ModeZOrder Mode = "zorder"
	// ModeStaticSupertile dispatches fixed-size supertiles in Z-order
	// (Fig. 16's static configurations).
	ModeStaticSupertile Mode = "static-supertile"
	// ModeTemperature always uses the temperature ranking with a fixed
	// supertile size (ablation).
	ModeTemperature Mode = "temperature"
	// ModeLIBRA is the full adaptive scheduler of §III-D.
	ModeLIBRA Mode = "libra"
	// ModeHilbert traverses tiles along a Hilbert curve (DTexL-style
	// locality ablation).
	ModeHilbert Mode = "hilbert"
	// ModeReverse alternates traversal direction every frame
	// (Boustrophedonic-Frames-style ablation).
	ModeReverse Mode = "reverse"
	// ModeRandom shuffles the tile order (worst-locality control).
	ModeRandom Mode = "random"
	// ModeAltTemperature ranks supertiles by temperature but interleaves
	// hot and cold into one shared queue instead of dedicating a hot RU.
	ModeAltTemperature Mode = "alt-temperature"
)

// Modes returns every scheduling mode, the paper's four first.
func Modes() []Mode {
	return []Mode{ModeZOrder, ModeStaticSupertile, ModeTemperature, ModeLIBRA,
		ModeHilbert, ModeReverse, ModeRandom, ModeAltTemperature}
}

// Config is the full GPU configuration (Table I defaults via DefaultConfig).
type Config struct {
	ScreenW, ScreenH int
	ClockHz          float64

	Sim         sim.Config
	Geometry    gpipe.Config
	VertexCache cache.Config
	L2          cache.Config
	DRAM        dram.Config
	Energy      energy.Config

	Mode            Mode
	StaticSupertile int // supertile edge for ModeStaticSupertile/ModeTemperature
	Adaptive        sched.AdaptiveConfig

	// IdealMemory makes every L1 access hit (Fig. 6a's ideal memory run).
	IdealMemory bool
	// PrefetchTexture enables the tagged next-line prefetcher in front of
	// the L1 caches (extension ablation).
	PrefetchTexture bool
	// IntervalWidth, when non-zero, records the per-interval DRAM request
	// histogram of each frame (Fig. 7).
	IntervalWidth int64
	// RenderElim enables Rendering Elimination (DESIGN §14): tiles whose
	// per-frame input signature matches the previous frame are discarded at
	// dispatch — no rasterization, no shading, no memory traffic — because
	// the persistent Frame Buffer already holds their exact pixels.
	RenderElim bool
}

// DefaultConfig mirrors Table I at the given screen size: 800 MHz GPU, 32×32
// tiles, 4KB vertex cache, 32KB tile and texture caches, 2MB 8-way shared
// L2, LPDDR4 DRAM, one Raster Unit with 8 cores.
func DefaultConfig(screenW, screenH int) Config {
	return Config{
		ScreenW:  screenW,
		ScreenH:  screenH,
		ClockHz:  800e6,
		Sim:      sim.DefaultConfig(),
		Geometry: gpipe.DefaultConfig(),
		VertexCache: cache.Config{
			Name: "vertex", SizeBytes: 4 * 1024, LineBytes: 64, Ways: 2, HitLatency: 1,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: 2 * 1024 * 1024, LineBytes: 64, Ways: 8, HitLatency: 18,
		},
		DRAM:            dram.DefaultConfig(),
		Energy:          energy.DefaultConfig(),
		Mode:            ModeZOrder,
		StaticSupertile: 4,
		Adaptive:        sched.DefaultAdaptiveConfig(),
	}
}

// PTRConfig is parallel tile rendering with interleaved Z-order dispatch:
// the same total core count split into Raster Units of 4 cores each.
func PTRConfig(screenW, screenH, rasterUnits int) Config {
	cfg := DefaultConfig(screenW, screenH)
	cfg.Mode = ModeZOrder
	cfg.Sim.RasterUnits = rasterUnits
	cfg.Sim.CoresPerRU = 4
	return cfg
}

// LIBRAConfig is the paper's LIBRA configuration: PTR plus the adaptive
// temperature-aware scheduler (§III), with 4-core Raster Units.
func LIBRAConfig(screenW, screenH, rasterUnits int) Config {
	cfg := PTRConfig(screenW, screenH, rasterUnits)
	cfg.Mode = ModeLIBRA
	return cfg
}

// FrameResult reports everything measured for one rendered frame.
type FrameResult struct {
	Frame int

	GeometryCycles int64
	RasterCycles   int64
	TotalCycles    int64

	FrameHash    uint64
	Fragments    int
	Instructions uint64

	TexHitRatio   float64
	AvgTexLatency float64
	VertexStats   cache.Stats
	L2Stats       cache.Stats
	DRAMStats     dram.Stats
	DRAMAccesses  int // raster-phase DRAM accesses (temperature numerator)
	TilesSkipped  int // tiles discarded by Rendering Elimination

	Energy energy.Breakdown

	TileStats *stats.TileTable         // per-tile census of this frame
	Intervals *stats.IntervalHistogram // non-nil when IntervalWidth > 0

	SchedulerName string
	OrderMode     sched.OrderMode
	Supertile     int

	GeomStats   gpipe.Stats
	PBBytes     uint64
	Replication float64 // texture L1 block replication factor (0..1)

	// RUTiles and RUUtilization report per-Raster-Unit load balance: tiles
	// rendered and fraction of core-cycles spent computing.
	RUTiles       []int
	RUUtilization []float64
}

// FPS returns the frame rate this frame would sustain at the GPU clock.
func (r FrameResult) FPS(clockHz float64) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return clockHz / float64(r.TotalCycles)
}

// GPU is one configured simulated device. Create with New; render frames in
// sequence with RenderFrame (cache and DRAM state persists across frames).
type GPU struct {
	cfg  Config
	grid tiling.Grid
	hier *mem.Hierarchy
	gp   *gpipe.Pipeline
	eng  *sim.Engine
	fb   *raster.FrameBuffer

	adaptive  *sched.Adaptive
	prevTiles *stats.TileTable

	traceSink func(raster.TileWork)
	rec       telemetry.Recorder

	// binner and replLines are per-frame scratch reused across frames (the
	// Polygon List Builder's tile lists and the replication metric's
	// line-address collection buffer).
	binner    tiling.Binner
	replLines []uint64

	// Rendering Elimination per-run state: the previous and current frame's
	// tile signature tables and the skip mask, all reused across frames
	// (sigPrev/sigCur swap after each frame instead of copying). sigValid
	// goes true once a frame has populated sigPrev, so frame 0 never skips.
	sigPrev  []uint64
	sigCur   []uint64
	reSkip   []bool
	sigValid bool

	clock    int64
	frameIdx int
}

// New builds a GPU from cfg.
func New(cfg Config) *GPU {
	grid := tiling.NewGrid(cfg.ScreenW, cfg.ScreenH)
	hier := newHierarchy(cfg)
	g := &GPU{
		cfg:      cfg,
		grid:     grid,
		hier:     hier,
		gp:       gpipe.New(cfg.Geometry, cfg.VertexCache, hier),
		eng:      sim.NewEngine(cfg.Sim, grid, hier),
		fb:       raster.NewFrameBuffer(cfg.ScreenW, cfg.ScreenH),
		adaptive: sched.NewAdaptive(cfg.Adaptive),
	}
	return g
}

// newHierarchy builds the shared L2 and DRAM of cfg, with its ideal-memory
// and texture-prefetch modes applied.
func newHierarchy(cfg Config) *mem.Hierarchy {
	hier := mem.NewHierarchy(cfg.L2, cfg.DRAM)
	hier.IdealL1 = cfg.IdealMemory
	hier.PrefetchNextLine = cfg.PrefetchTexture
	return hier
}

// Config returns the GPU's configuration.
func (g *GPU) Config() Config { return g.cfg }

// Grid returns the tile grid.
func (g *GPU) Grid() tiling.Grid { return g.grid }

// FrameBuffer returns the most recently rendered frame.
func (g *GPU) FrameBuffer() *raster.FrameBuffer { return g.fb }

// SetRecorder attaches (or, with nil, detaches) a telemetry recorder to every
// instrumented unit of the GPU: the Raster Units (tile spans), the cache
// hierarchy (hit-rate series), the DRAM banks (activity tracks) and the tile
// scheduler (decision counts and instants).
func (g *GPU) SetRecorder(rec telemetry.Recorder) {
	g.rec = rec
	g.hier.Rec = rec
	g.hier.DRAM.SetRecorder(rec)
	g.eng.SetRecorder(rec)
}

// RenderFrame runs one complete frame through the GPU.
func (g *GPU) RenderFrame(sc *scene.Scene) FrameResult {
	res := FrameResult{Frame: g.frameIdx}
	start := g.clock
	if g.rec != nil {
		g.rec.BeginFrame(g.frameIdx, start)
	}

	// Per-frame stat windows (contents persist; counters reset).
	g.hier.ResetStats()
	g.eng.ResetFrameStats()
	g.gp.VertexCache().ResetStats()

	var hist *stats.IntervalHistogram
	if g.cfg.IntervalWidth > 0 {
		hist = stats.NewIntervalHistogram(g.cfg.IntervalWidth)
		g.hier.DRAM.OnRequest = func(t int64) {
			rel := t - start
			hist.Record(rel)
		}
		defer func() { g.hier.DRAM.OnRequest = nil }()
	}

	// ——— Geometry Pipeline ———
	prims, gst := g.gp.Run(sc, g.cfg.ScreenW, g.cfg.ScreenH, start)
	res.GeomStats = gst
	res.GeometryCycles = gst.Cycles

	// ——— Tiling Engine: Polygon List Builder ———
	lists := g.binner.Bin(g.grid, prims)
	res.PBBytes = lists.PBBytes
	// PB writes flow through the Tile cache as binning progresses, spread
	// across the geometry phase. The written lines are the PBBytes that
	// follow ParamBase, one per 64-byte line, so they are iterated directly.
	if n := int64((lists.PBBytes + 63) / 64); n > 0 {
		for i := int64(0); i < n; i++ {
			addr := mem.ParamBase + uint64(i*64)
			t := start + gst.Cycles*i/n
			g.hier.AccessThroughL1(g.eng.TileCache(), t, addr, true)
		}
	}

	// ——— Scheduler selection ———
	rasterStart := start + gst.Cycles
	scheduler, orderMode, superSize := g.buildScheduler()
	res.SchedulerName = scheduler.Name()
	res.OrderMode = orderMode
	res.Supertile = superSize
	if g.rec != nil {
		g.rec.SchedDecision(rasterStart, scheduler.Name(), orderMode.String(), superSize)
		scheduler = sched.Instrument(scheduler, g.rec)
	}

	// ——— Rendering Elimination: signature match against the previous frame ———
	//
	// Skips are decided here, before RunRaster, from frame-pure inputs (the
	// binned lists, the primitives, the scene state) — never from timing or
	// host-parallelism state — so the skip set is identical across
	// SimWorkers settings by construction. Disabled under a trace sink:
	// CaptureTrace consumers need every tile's functional work.
	var skip []bool
	if g.cfg.RenderElim && g.traceSink == nil {
		salt := uint64(g.cfg.Sim.Filtering)
		g.sigCur = tiling.AppendTileSignatures(g.sigCur[:0], lists, prims, sc, salt)
		if g.sigValid && len(g.sigPrev) == len(g.sigCur) {
			if cap(g.reSkip) < len(g.sigCur) {
				g.reSkip = make([]bool, len(g.sigCur))
			}
			g.reSkip = g.reSkip[:len(g.sigCur)]
			for i, sig := range g.sigCur {
				g.reSkip[i] = sig == g.sigPrev[i]
			}
			skip = g.reSkip
		}
	}

	// ——— Raster Pipeline ———
	tileStats := stats.NewTileTable(g.grid.TilesX, g.grid.TilesY)
	out := g.eng.RunRaster(sim.FrameInput{
		Scene:      sc,
		Prims:      prims,
		Lists:      lists,
		FB:         g.fb,
		Scheduler:  scheduler,
		Skip:       skip,
		TileStats:  tileStats,
		StartCycle: rasterStart,
		OnTileWork: g.traceSink,
	})

	res.RasterCycles = out.RasterCycles
	res.TotalCycles = gst.Cycles + out.RasterCycles
	for i, ru := range out.PerRU {
		res.RUTiles = append(res.RUTiles, ru.Tiles)
		res.RUUtilization = append(res.RUUtilization, out.Utilization(i, g.cfg.Sim.CoresPerRU))
	}
	res.Fragments = out.Fragments
	res.Instructions = out.Instructions + gst.Instructions
	res.TexHitRatio = out.TexHitRatio()
	res.AvgTexLatency = out.AvgTexLatency()
	res.DRAMAccesses = out.DRAMAccesses
	res.TilesSkipped = out.TilesSkipped
	res.FrameHash = g.fb.Hash()
	res.TileStats = tileStats
	res.Intervals = hist
	res.VertexStats = g.gp.VertexCache().Stats()
	res.L2Stats = g.hier.L2.Stats()
	res.DRAMStats = g.hier.DRAM.Stats()
	res.Replication = g.textureReplication()

	// ——— Energy ———
	var l1Accesses uint64 = out.TexLineAccesses + gst.VertexFetches + g.eng.TileCache().Stats().Accesses
	res.Energy = energy.Estimate(g.cfg.Energy, energy.Activity{
		Instructions: res.Instructions,
		L1Accesses:   l1Accesses,
		L2Accesses:   res.L2Stats.Accesses,
		DRAMReads:    res.DRAMStats.Reads,
		DRAMWrites:   res.DRAMStats.Writes,
		RowMisses:    res.DRAMStats.RowMisses,
		Cycles:       res.TotalCycles,
	})

	// ——— Frame-coherence bookkeeping for the next frame ———
	g.adaptive.Observe(sched.FrameMetrics{
		RasterCycles: out.RasterCycles,
		TexHitRatio:  res.TexHitRatio,
	}, res.OrderMode)
	g.prevTiles = tileStats
	if g.cfg.RenderElim && g.traceSink == nil {
		g.sigPrev, g.sigCur = g.sigCur, g.sigPrev
		g.sigValid = true
	}
	g.clock = rasterStart + out.RasterCycles
	g.frameIdx++
	if g.rec != nil {
		g.rec.EndFrame(g.clock)
	}
	return res
}

// buildScheduler constructs the per-frame scheduler per the configured mode.
func (g *GPU) buildScheduler() (sched.Scheduler, sched.OrderMode, int) {
	switch g.cfg.Mode {
	case ModeStaticSupertile:
		super := tiling.NewSupertileGrid(g.grid, g.cfg.StaticSupertile)
		return sched.NewStaticSupertileQueue(super, g.cfg.Sim.RasterUnits),
			sched.ModeZOrder, g.cfg.StaticSupertile
	case ModeTemperature:
		super := tiling.NewSupertileGrid(g.grid, g.cfg.StaticSupertile)
		if g.prevTiles == nil {
			return sched.NewStaticSupertileQueue(super, g.cfg.Sim.RasterUnits),
				sched.ModeZOrder, g.cfg.StaticSupertile
		}
		ranked := sched.RankSupertiles(super, g.prevTiles)
		return sched.NewTemperature(super, ranked, g.cfg.Sim.RasterUnits),
			sched.ModeTemperature, g.cfg.StaticSupertile
	case ModeLIBRA:
		size := g.capSupertile(g.adaptive.SupertileSize())
		super := tiling.NewSupertileGrid(g.grid, size)
		if g.adaptive.Mode() == sched.ModeTemperature && g.prevTiles != nil {
			ranked := sched.RankSupertiles(super, g.prevTiles)
			return sched.NewTemperature(super, ranked, g.cfg.Sim.RasterUnits),
				sched.ModeTemperature, size
		}
		return sched.NewZOrderQueue(g.grid), sched.ModeZOrder, size
	case ModeHilbert:
		return sched.NewHilbertQueue(g.grid), sched.ModeZOrder, 0
	case ModeReverse:
		return sched.NewReverseQueue(g.grid, g.frameIdx), sched.ModeZOrder, 0
	case ModeRandom:
		return sched.NewRandomQueue(g.grid, int64(g.frameIdx)+12345), sched.ModeZOrder, 0
	case ModeAltTemperature:
		super := tiling.NewSupertileGrid(g.grid, g.cfg.StaticSupertile)
		if g.prevTiles == nil {
			return sched.NewStaticSupertileQueue(super, g.cfg.Sim.RasterUnits),
				sched.ModeZOrder, g.cfg.StaticSupertile
		}
		ranked := sched.RankSupertiles(super, g.prevTiles)
		return sched.NewAlternatingTemperature(super, ranked, g.cfg.Sim.RasterUnits),
			sched.ModeTemperature, g.cfg.StaticSupertile
	default:
		return sched.NewZOrderQueue(g.grid), sched.ModeZOrder, 0
	}
}

// capSupertile shrinks the supertile size until the grid holds enough
// supertiles to keep every Raster Unit fed (hot/cold dispatch needs a
// meaningful ranking; a supertile covering most of the screen would leave
// RUs idle — §III-C notes larger sizes "would cover almost the entire
// screen and would be ineffective").
func (g *GPU) capSupertile(size int) int {
	minSupers := 4 * g.cfg.Sim.RasterUnits
	for size > 2 {
		s := tiling.NewSupertileGrid(g.grid, size)
		if s.NumSupertiles() >= minSupers {
			break
		}
		size /= 2
	}
	return size
}

// textureReplication returns the fraction of texture lines resident in more
// than one texture L1 (the block-replication metric of §V-A.3). The resident
// lines of all L1s are gathered into a reused scratch slice and sorted;
// replicated lines appear as runs longer than one — no per-frame map.
func (g *GPU) textureReplication() float64 {
	lines := g.replLines[:0]
	for _, c := range g.eng.TextureCaches() {
		lines = c.AppendLines(lines)
	}
	g.replLines = lines
	if len(lines) == 0 {
		return 0
	}
	slices.Sort(lines)
	replicated := 0
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j] == lines[i] {
			j++
		}
		if j-i > 1 {
			replicated += j - i
		}
		i = j
	}
	return float64(replicated) / float64(len(lines))
}
