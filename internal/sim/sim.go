// Package sim is the discrete-event timing engine of the Raster Pipeline:
// one or more Raster Units (each with private shader cores, texture L1s and
// warp-level latency hiding) race through the frame's tiles while sharing
// the L2 and the timed DRAM.
//
// The engine always steps the Raster Unit with the smallest local clock, so
// memory requests from concurrently-rendered tiles interleave in global time
// order — the property that makes two hot tiles rendered together congest
// DRAM, and a hot tile paired with a cold one not (§III).
package sim

import (
	"fmt"

	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// Config sizes the Raster Pipeline hardware.
type Config struct {
	RasterUnits  int
	CoresPerRU   int
	WarpsPerCore int     // outstanding quad-warps a core can hold in flight
	IPC          float64 // shader instructions per cycle per core (SIMD lanes)
	BatchQuads   int     // engine stepping granularity (time-ordering fidelity)
	SetupCycles  int64   // fixed per-tile rasterizer setup cost
	// FrontEndCyclesPerQuad is the Raster Unit's rasterizer/Early-Z issue
	// rate: one quad leaves the front-end every this many cycles. This is
	// the structural limit that makes wide single-RU configurations starve
	// on low-ALU tiles (Fig. 4) and that parallel tile rendering doubles.
	FrontEndCyclesPerQuad float64
	// PrimSetupCycles is the per-primitive edge/attribute setup occupancy
	// of the front-end.
	PrimSetupCycles float64
	// QuadBlock is the number of consecutive quads dispatched to one core
	// before moving to the next: screen-space blocks keep a core's texture
	// accesses spatially coherent in its private L1.
	QuadBlock int

	// Workers selects the intra-frame execution mode. 0 or 1 is the serial
	// reference engine. Greater values shard the functional rasterization of
	// the frame's tiles across that many host worker goroutines, which
	// rendezvous at a barrier before the cycle-accurate timing replay runs
	// (see parallel.go). Every externally visible result — cycle counts,
	// cache and DRAM statistics, telemetry, frame pixels — is byte-identical
	// to the serial engine for any Workers value.
	Workers int

	// Filtering is the texture sampling footprint of the texture units.
	Filtering raster.Filtering

	TexL1     cache.Config // per-core texture cache template
	TileCache cache.Config // shared Tile cache (Parameter Buffer reads)
}

// DefaultConfig mirrors Table I: 8 cores total at 4-wide issue, 32KB texture
// L1 per core, 32KB Tile cache.
func DefaultConfig() Config {
	return Config{
		RasterUnits:           1,
		CoresPerRU:            8,
		WarpsPerCore:          8,
		IPC:                   4,
		BatchQuads:            32,
		SetupCycles:           64,
		FrontEndCyclesPerQuad: 2,
		PrimSetupCycles:       4,
		QuadBlock:             4,
		Filtering:             raster.FilterNearest,
		TexL1:                 cache.Config{Name: "tex", SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4, HitLatency: 2},
		TileCache:             cache.Config{Name: "tile", SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4, HitLatency: 2},
	}
}

// SigCheckCycles is the fixed cost a Raster Unit pays to look up and compare
// a tile's Rendering Elimination signature at dispatch. A matching tile
// advances the RU clock by only this much: its raster, shading, Parameter
// Buffer and Color Buffer work is skipped entirely (the Frame Buffer already
// holds its exact pixels — see DESIGN §14).
const SigCheckCycles = 4

// RUStats aggregates one Raster Unit's frame activity.
type RUStats struct {
	Tiles int
	// TilesSkipped counts tiles discarded by Rendering Elimination (their
	// input signature matched the previous frame); they are not included in
	// Tiles.
	TilesSkipped int
	Quads        int
	Fragments    int
	Instructions uint64
	// TexAccesses counts per-fragment texture samples (hit-ratio basis);
	// TexLineAccesses counts the distinct lines replayed against the L1
	// (latency basis) — fragments of a quad coalesce onto shared lines.
	TexAccesses     uint64
	TexLineAccesses uint64
	TexMisses       uint64
	TexLatencySum   uint64
	DRAMAccesses    int
	FinishCycle     int64
	// ComputeCycles is the summed shader-core busy time (per-core cycles,
	// aggregated over the RU's cores); with the frame duration it yields
	// core utilization.
	ComputeCycles int64
	StartCycle    int64
}

// FrameOutput is the result of the raster phase of one frame.
type FrameOutput struct {
	RasterCycles int64 // start→last-RU-finish
	PerRU        []RUStats

	Fragments       int
	Instructions    uint64
	TexAccesses     uint64
	TexLineAccesses uint64
	TexMisses       uint64
	TexLatencySum   uint64
	DRAMAccesses    int
	TilesSkipped    int // Rendering Elimination discards this frame
}

// Utilization returns the fraction of core-cycles RU i spent computing
// during its active window (0 when it did no work).
func (f FrameOutput) Utilization(i, coresPerRU int) float64 {
	ru := f.PerRU[i]
	window := ru.FinishCycle - ru.StartCycle
	if window <= 0 || coresPerRU <= 0 {
		return 0
	}
	return float64(ru.ComputeCycles) / float64(window*int64(coresPerRU))
}

// TexHitRatio returns the frame's overall texture-L1 hit ratio.
func (f FrameOutput) TexHitRatio() float64 {
	if f.TexAccesses == 0 {
		return 0
	}
	return 1 - float64(f.TexMisses)/float64(f.TexAccesses)
}

// AvgTexLatency returns the mean observed texture access latency in cycles.
func (f FrameOutput) AvgTexLatency() float64 {
	if f.TexLineAccesses == 0 {
		return 0
	}
	return float64(f.TexLatencySum) / float64(f.TexLineAccesses)
}

// Engine owns the Raster Units and the shared Tile cache. Cache contents
// persist across frames, as on hardware.
type Engine struct {
	cfg       Config
	grid      tiling.Grid
	hier      *mem.Hierarchy
	tileCache *cache.Cache
	rus       []*rasterUnit

	// renderer rasterizes tiles for every Raster Unit on the serial path:
	// beginTile renders a unit's whole tile before any other unit steps, so
	// it never holds two tiles at once. With the farm it is worker 0.
	renderer *raster.Renderer

	// farm, when non-nil, pre-renders tile work on a worker pool before the
	// timing replay (Config.Workers > 1); nil selects the serial reference
	// path in which each Raster Unit rasterizes its own tiles inline.
	farm *renderFarm

	// rec, when non-nil, receives per-tile spans for the observability
	// layer. The nil check keeps the disabled hot path branch-only.
	rec telemetry.Recorder

	// perRU is the reusable backing array of FrameOutput.PerRU, so a
	// steady-state RunRaster allocates nothing. The returned slice is valid
	// until the next RunRaster on this engine.
	perRU []RUStats

	// texCaches caches the flattened per-core texture L1 list.
	texCaches []*cache.Cache
}

// warpRing is a fixed-capacity FIFO of in-flight quad completion times, one
// per shader core. Capacity is Config.WarpsPerCore; the backing array is
// allocated once at engine construction so the per-quad push/pop on the
// timing hot path never touches the allocator.
type warpRing struct {
	buf  []int64
	head int // index of the oldest entry
	n    int // live entries
}

func (r *warpRing) reset() { r.head, r.n = 0, 0 }

// pop removes and returns the oldest completion time.
func (r *warpRing) pop() int64 {
	v := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// push appends a completion time; the caller pops first when full.
func (r *warpRing) push(v int64) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

type rasterUnit struct {
	id    int
	texL1 []*cache.Cache

	now      int64
	coreFree []int64
	rings    []warpRing
	// core is the shader core that takes the RU's next quad, and inBlock
	// how many quads of its current QuadBlock it has taken: the frame's
	// rr-th quad goes to core (rr/QuadBlock)%CoresPerRU, stepped here
	// without dividing.
	core    int
	inBlock int
	feClock float64 // rasterizer front-end availability (absolute cycles)
	feStep  float64 // front-end occupancy per quad for the current tile

	// work points at the tile currently being replayed: the RU's own
	// scratch in the serial rendering path, or the caller's Works entry in
	// replay modes. A pointer rather than a shallow struct copy, so the RU
	// never holds a second alias of storage it does not own (retainlint's
	// transient-ownership contract). Read-only during the replay.
	work *raster.TileWork
	// scratch is the RU-owned reusable TileWork the serial path renders
	// into; its buffers are reset and refilled at every tile, so steady-state
	// rendering stops allocating once they reach the hot-tile watermark.
	scratch raster.TileWork
	// quadIdx is the next quad of work to replay, and texIdx the index of
	// its first line in work.TexLines: the earlier quads' TexCounts summed.
	quadIdx    int
	texIdx     int
	tileActive bool
	tileAcq    int64 // cycle the tile was acquired (telemetry span start)
	tileDRAM   int   // DRAM accesses of the current tile (telemetry)
	tileStart  int64
	tileEnd    int64
	done       bool

	stats RUStats
}

// NewEngine builds the raster engine over the shared memory hierarchy.
func NewEngine(cfg Config, grid tiling.Grid, hier *mem.Hierarchy) *Engine {
	e := &Engine{
		cfg:       cfg,
		grid:      grid,
		hier:      hier,
		tileCache: cache.New(cfg.TileCache),
		renderer:  raster.NewRenderer(grid),
	}
	e.renderer.SetFiltering(cfg.Filtering)
	for i := 0; i < cfg.RasterUnits; i++ {
		ru := &rasterUnit{
			id:       i,
			coreFree: make([]int64, cfg.CoresPerRU),
			rings:    make([]warpRing, cfg.CoresPerRU),
		}
		for c := range ru.rings {
			ru.rings[c].buf = make([]int64, cfg.WarpsPerCore)
		}
		for c := 0; c < cfg.CoresPerRU; c++ {
			l1cfg := cfg.TexL1
			l1cfg.Name = texCacheName(i, c)
			ru.texL1 = append(ru.texL1, cache.New(l1cfg))
		}
		e.rus = append(e.rus, ru)
	}
	if cfg.Workers > 1 {
		e.farm = newRenderFarm(cfg, grid, e.renderer)
	}
	return e
}

func texCacheName(ru, core int) string {
	return fmt.Sprintf("tex%d.%d", ru, core)
}

// SetRecorder attaches (or, with nil, detaches) the telemetry recorder that
// receives per-tile spans. Call before RunRaster.
func (e *Engine) SetRecorder(rec telemetry.Recorder) { e.rec = rec }

// TileCache exposes the shared Tile cache (stats).
func (e *Engine) TileCache() *cache.Cache { return e.tileCache }

// TextureCaches returns all per-core texture L1s across RUs, used for
// hit-ratio and replication metrics. The slice is built once and cached
// (the cache set is fixed at construction); callers must not modify it.
func (e *Engine) TextureCaches() []*cache.Cache {
	if e.texCaches == nil {
		for _, ru := range e.rus {
			e.texCaches = append(e.texCaches, ru.texL1...)
		}
	}
	return e.texCaches
}

// ResetFrameStats clears per-frame counters on the engine's caches (contents
// persist, matching hardware behaviour between frames).
func (e *Engine) ResetFrameStats() {
	e.tileCache.ResetStats()
	for _, c := range e.TextureCaches() {
		c.ResetStats()
	}
}

// FrameInput bundles everything the raster phase consumes.
type FrameInput struct {
	Scene     *scene.Scene
	Prims     []gpipe.Primitive
	Lists     *tiling.TileLists
	FB        *raster.FrameBuffer
	Scheduler sched.Scheduler
	// Works, when non-nil, replays pre-rendered tile work (trace-driven
	// mode) instead of rasterizing Scene/Prims/Lists; indexed by the ids
	// the scheduler hands out (tile ids, or frame·NumTiles + tile under PFR).
	// The slots remain owned by their producer and are valid only for this
	// frame; retaining one requires TileWork.Clone.
	//libra:transient
	Works []raster.TileWork
	// OnTileWork, when non-nil, receives every tile's work trace as it is
	// rendered (trace recording). The TileWork's slices are owned by the
	// engine's reusable scratch and are valid only for the duration of the
	// call: a sink that retains the trace past its return must deep-copy it
	// with TileWork.Clone.
	OnTileWork func(raster.TileWork)
	// Skip, when non-nil, marks tiles whose Rendering Elimination signature
	// matched the previous frame (indexed by tile id): the engine charges
	// only SigCheckCycles for them and performs no rendering, no Parameter
	// Buffer reads and no Color Buffer flush. The slice is owned by the
	// caller's per-run signature state and is overwritten next frame.
	//libra:transient
	Skip []bool
	// TileStats, when non-nil, accumulates per-tile DRAM accesses and
	// instruction counts (LIBRA's temperature inputs).
	TileStats *stats.TileTable
	// StartCycle anchors the raster phase in global time (after geometry).
	StartCycle int64
}

// RunRaster simulates the raster phase of one frame and returns its timing
// and activity. Rendering output lands in in.FB. The returned PerRU slice is
// backed by engine-owned scratch and is valid until the next RunRaster call
// on this engine; callers that retain outputs across frames must copy it.
//
//libra:hotpath
//libra:transient
func (e *Engine) RunRaster(in FrameInput) FrameOutput {
	// Parallel intra-frame mode: rasterize every tile functionally on the
	// render farm first (rendezvous barrier inside), then replay the frame
	// through the unchanged serial timing loop below. TileWork is a pure
	// function of (Scene, Prims, Lists, tile), so the replay consumes inputs
	// identical to the serial path's inline rasterization and every counter
	// stays byte-identical (see parallel.go).
	if e.farm != nil && in.Works == nil {
		in.Works = e.farm.renderFrame(in)
	}
	for _, ru := range e.rus {
		ru.now = in.StartCycle
		ru.done = false
		ru.tileActive = false
		ru.quadIdx, ru.texIdx = 0, 0
		ru.core, ru.inBlock = 0, 0
		ru.stats = RUStats{StartCycle: in.StartCycle}
		for c := range ru.coreFree {
			ru.coreFree[c] = in.StartCycle
			ru.rings[c].reset()
		}
	}

	for {
		ru := e.nextRU()
		if ru == nil {
			break
		}
		e.step(ru, in)
	}

	out := FrameOutput{RasterCycles: 0, PerRU: e.perRU[:0]}
	end := in.StartCycle
	for _, ru := range e.rus {
		out.PerRU = append(out.PerRU, ru.stats)
		if ru.stats.FinishCycle > end {
			end = ru.stats.FinishCycle
		}
		out.Fragments += ru.stats.Fragments
		out.Instructions += ru.stats.Instructions
		out.TexAccesses += ru.stats.TexAccesses
		out.TexLineAccesses += ru.stats.TexLineAccesses
		out.TexMisses += ru.stats.TexMisses
		out.TexLatencySum += ru.stats.TexLatencySum
		out.DRAMAccesses += ru.stats.DRAMAccesses
		out.TilesSkipped += ru.stats.TilesSkipped
	}
	out.RasterCycles = end - in.StartCycle
	e.perRU = out.PerRU
	return out
}

// nextRU picks the live RU with the smallest local clock.
func (e *Engine) nextRU() *rasterUnit {
	var best *rasterUnit
	for _, ru := range e.rus {
		if ru.done {
			continue
		}
		if best == nil || ru.now < best.now {
			best = ru
		}
	}
	return best
}

// step advances one RU by one unit of work: tile acquisition or one quad
// batch.
func (e *Engine) step(ru *rasterUnit, in FrameInput) {
	if !ru.tileActive {
		tile := in.Scheduler.NextTile(ru.id)
		if tile < 0 {
			ru.done = true
			if ru.stats.FinishCycle < ru.now {
				ru.stats.FinishCycle = ru.now
			}
			return
		}
		e.beginTile(ru, in, tile)
		return
	}
	e.processBatch(ru, in)
}

// beginTile renders the tile functionally, accounts the Tile Fetcher's
// Parameter Buffer reads, and arms the quad replay.
func (e *Engine) beginTile(ru *rasterUnit, in FrameInput, tile int) {
	if in.Skip != nil && in.Skip[tile] {
		// Rendering Elimination hit: the tile's input signature matches the
		// previous frame, so the Frame Buffer already holds its exact pixels.
		// Charge the signature comparison only — no rendering, no memory
		// traffic, no flush — and return to the scheduler.
		ru.stats.TilesSkipped++
		ru.now += SigCheckCycles
		if e.rec != nil {
			e.rec.TileSkipped(ru.id, tile, ru.now)
		}
		return
	}
	if in.Works != nil {
		ru.work = &in.Works[tile]
	} else {
		e.renderer.RenderTileInto(&ru.scratch, in.Scene, in.Prims, in.Lists.Lists[tile], tile, in.FB)
		ru.work = &ru.scratch
	}
	if in.OnTileWork != nil {
		in.OnTileWork(*ru.work)
	}
	ru.quadIdx, ru.texIdx = 0, 0
	ru.tileActive = true
	ru.tileAcq = ru.now
	ru.tileDRAM = 0
	ru.tileStart = ru.now + e.cfg.SetupCycles
	ru.tileEnd = ru.tileStart
	for c := range ru.coreFree {
		ru.coreFree[c] = ru.tileStart
		ru.rings[c].reset()
	}
	// Front-end budget for this tile: per-quad issue plus per-primitive
	// setup, spread uniformly over the tile's quads.
	ru.feClock = float64(ru.tileStart)
	ru.feStep = e.cfg.FrontEndCyclesPerQuad
	if n := len(ru.work.Quads); n > 0 {
		ru.feStep += e.cfg.PrimSetupCycles * float64(ru.work.Primitives) / float64(n)
	}

	// Tile Fetcher: read the tile's Parameter Buffer entries through the
	// shared Tile cache. The fetcher prefetches ahead of the Raster Units
	// (§V-A.3), so its latency is not exposed, but its DRAM traffic is real.
	dram := 0
	for _, addr := range ru.work.PBReads {
		res := e.hier.AccessThroughL1(e.tileCache, ru.now, uint64(addr), false)
		dram += res.DRAMAccesses
	}
	ru.stats.DRAMAccesses += dram
	ru.tileDRAM += dram
	if in.TileStats != nil {
		in.TileStats.AddDRAM(tile, dram)
	}
}

// processBatch replays up to BatchQuads quads of the current tile against
// the memory system, then yields to the engine's global ordering. The RU's
// per-quad state lives in locals for the batch and is stored back once.
func (e *Engine) processBatch(ru *rasterUnit, in FrameInput) {
	cfg := &e.cfg
	work := ru.work
	quads := work.Quads
	qi, ti := ru.quadIdx, ru.texIdx
	limit := min(qi+cfg.BatchQuads, len(quads))
	core, inBlock := ru.core, ru.inBlock
	feClock, feStep := ru.feClock, ru.feStep
	tileEnd := ru.tileEnd
	var texAccesses, lineAccesses, texMisses, latencySum, instructions uint64
	var computeCycles int64
	fragments := 0
	dram := 0
	for ; qi < limit; qi++ {
		q := &quads[qi]
		c := core
		if inBlock++; inBlock == cfg.QuadBlock {
			inBlock = 0
			if core++; core == cfg.CoresPerRU {
				core = 0
			}
		}

		start := ru.coreFree[c]
		ring := &ru.rings[c]
		if ring.n >= cfg.WarpsPerCore {
			if oldest := ring.pop(); oldest > start {
				start = oldest
			}
		}
		// The quad cannot start before the RU's rasterizer front-end has
		// produced it.
		feClock += feStep
		if fe := int64(feClock); fe > start {
			start = fe
		}
		var maxLat int64
		texAccesses += uint64(q.Samples)
		l1 := ru.texL1[c]
		next := ti + int(q.TexCount)
		for _, line := range work.TexLines[ti:next] {
			addr := uint64(line)
			// Most hits are on the set's most recently used line: those
			// take the L1 hit latency without a call.
			if e.hier.ReadHitMRU(l1, addr) {
				lat := l1.HitLatency()
				latencySum += uint64(lat)
				maxLat = max(maxLat, lat)
				continue
			}
			res := e.hier.AccessThroughL1(l1, start, addr, false)
			if res.Level != mem.LevelL1 {
				texMisses++
			}
			latencySum += uint64(res.Latency)
			dram += res.DRAMAccesses
			maxLat = max(maxLat, res.Latency)
		}
		ti = next
		lineAccesses += uint64(q.TexCount)

		compute := max(int64(float64(q.Instr)/cfg.IPC), 1)
		computeCycles += compute
		free := start + compute
		ru.coreFree[c] = free
		complete := max(start+maxLat, free)
		ring.push(complete)
		tileEnd = max(tileEnd, complete)
		fragments += int(q.Fragments)
		instructions += uint64(q.Instr)
	}
	st := &ru.stats
	st.Quads += qi - ru.quadIdx
	st.Fragments += fragments
	st.Instructions += instructions
	st.TexAccesses += texAccesses
	st.TexLineAccesses += lineAccesses
	st.TexMisses += texMisses
	st.TexLatencySum += latencySum
	st.ComputeCycles += computeCycles
	ru.quadIdx, ru.texIdx = qi, ti
	ru.core, ru.inBlock = core, inBlock
	ru.feClock = feClock
	ru.tileEnd = tileEnd

	if qi >= len(quads) {
		e.finishTile(ru, in, dram)
		return
	}
	// Frontier: the earliest time this RU can issue more work.
	ru.now = ru.coreFree[0]
	for _, t := range ru.coreFree[1:] {
		if t < ru.now {
			ru.now = t
		}
	}
	ru.stats.DRAMAccesses += dram
	ru.tileDRAM += dram
	if in.TileStats != nil {
		in.TileStats.AddDRAM(work.TileID, dram)
	}
}

// finishTile flushes the Color Buffer and closes the per-tile barrier.
func (e *Engine) finishTile(ru *rasterUnit, in FrameInput, dram int) {
	// Barrier: the tile completes when all outstanding quads are done.
	end := ru.tileEnd
	for _, t := range ru.coreFree {
		if t > end {
			end = t
		}
	}

	// Color Buffer flush: the tile's colors stream directly to the Frame
	// Buffer in main memory (§II-C), consuming DRAM bandwidth but not
	// stalling the RU and not polluting the L2.
	for _, line := range ru.work.FlushLines {
		res := e.hier.WriteDRAM(end, uint64(line))
		dram += res.DRAMAccesses
	}

	ru.stats.DRAMAccesses += dram
	ru.tileDRAM += dram
	ru.stats.Tiles++
	if in.TileStats != nil {
		in.TileStats.AddDRAM(ru.work.TileID, dram)
		in.TileStats.AddInstructions(ru.work.TileID, ru.work.Instructions)
	}
	if e.rec != nil {
		e.rec.TileSpan(ru.id, ru.work.TileID, ru.tileAcq, end, len(ru.work.Quads), ru.tileDRAM)
	}
	ru.now = end
	if end > ru.stats.FinishCycle {
		ru.stats.FinishCycle = end
	}
	ru.tileActive = false
}
