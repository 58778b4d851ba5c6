package sim

import (
	"testing"

	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/shader"
	"repro/internal/stats"
	"repro/internal/tiling"
)

// testFrame builds a 4x2-tile frame where the left half is "hot" (layered
// quads sampling a huge texture with heavy UV repeat, so almost every
// fragment misses to DRAM and there is no inter-tile reuse to confound the
// experiment) and the right half is "cold" (layered ALU-heavy procedural
// quads with no texture traffic).
func testFrame(t testing.TB, grid tiling.Grid) (*scene.Scene, []gpipe.Primitive, *tiling.TileLists) {
	t.Helper()
	sc := scene.NewScene()
	fw, fh := float32(grid.ScreenW), float32(grid.ScreenH)
	flat := scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true}
	sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: flat}) // draw 0: backdrop

	const layers = 12
	// Mip-less huge texture: heavy UV repeat scatters accesses across the
	// full 64MB with no level-of-detail rescue and no reuse.
	hugeTex := scene.NewTexture(0, 4096, 4096, mem.TextureBase, 1)
	hotMat := scene.Material{
		Program:  shader.Textured,
		Textures: []*scene.Texture{hugeTex},
		Blend:    scene.BlendAlpha,
	}
	coldMat := scene.Material{Program: shader.Procedural, Blend: scene.BlendAlpha}
	for i := 0; i < layers; i++ {
		sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: hotMat})  // draws 1..layers
		sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: coldMat}) // draws layers+1..2*layers
	}

	var prims []gpipe.Primitive
	seq := 0
	emitQuad := func(draw int, x0, y0, x1, y1, z, u1, v1 float32) {
		mk := func(x, y, u, v float32) geom4 {
			return geom4{x, y, z, 1, u, v}
		}
		quad := [4]geom4{mk(x0, y0, 0, 0), mk(x1, y0, u1, 0), mk(x1, y1, u1, v1), mk(x0, y1, 0, v1)}
		for _, tri := range [][3]int{{0, 1, 2}, {0, 2, 3}} {
			var p gpipe.Primitive
			p.Draw = draw
			p.Seq = seq
			seq++
			for k, vi := range tri {
				p.V[k].Pos.X = quad[vi].x
				p.V[k].Pos.Y = quad[vi].y
				p.V[k].Pos.Z = quad[vi].z
				p.V[k].Pos.W = 1
				p.V[k].UV.X = quad[vi].u
				p.V[k].UV.Y = quad[vi].v
				p.V[k].Color.X, p.V[k].Color.Y, p.V[k].Color.Z = 1, 1, 1
			}
			prims = append(prims, p)
		}
	}
	emitQuad(0, 0, 0, fw, fh, 0.9, 1, 1)
	for i := 0; i < layers; i++ {
		// Hot half: 4 of the layers carry the scattered texture demand.
		if i < 4 {
			emitQuad(1+2*i, 0, 0, fw/2, fh, 0.5, 63, 63)
		}
		emitQuad(2+2*i, fw/2, 0, fw, fh, 0.5, 1, 1)
	}
	lists := new(tiling.Binner).Bin(grid, prims)
	return sc, prims, lists
}

type geom4 struct{ x, y, z, w, u, v float32 }

func testHier() *mem.Hierarchy {
	return mem.NewHierarchy(
		cache.Config{Name: "L2", SizeBytes: 256 * 1024, LineBytes: 64, Ways: 8, HitLatency: 18},
		dram.Config{Channels: 1, Banks: 4, RowBytes: 2048, RowHitLatency: 50, RowMissLatency: 100, BurstCycles: 8, QueueDepth: 8},
	)
}

func smallCfg(rus int) Config {
	cfg := DefaultConfig()
	cfg.RasterUnits = rus
	cfg.CoresPerRU = 4
	return cfg
}

func runFrame(t *testing.T, cfg Config, s sched.Scheduler) (FrameOutput, *stats.TileTable, uint64) {
	t.Helper()
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)
	hier := testHier()
	eng := NewEngine(cfg, grid, hier)
	fb := raster.NewFrameBuffer(128, 64)
	tt := stats.NewTileTable(grid.TilesX, grid.TilesY)
	out := eng.RunRaster(FrameInput{
		Scene: sc, Prims: prims, Lists: lists, FB: fb,
		Scheduler: s, TileStats: tt, StartCycle: 0,
	})
	return out, tt, fb.Hash()
}

func TestSingleRURendersAllTiles(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	out, tt, _ := runFrame(t, smallCfg(1), sched.NewZOrderQueue(grid))
	if out.PerRU[0].Tiles != grid.NumTiles() {
		t.Errorf("rendered %d tiles, want %d", out.PerRU[0].Tiles, grid.NumTiles())
	}
	if out.Fragments == 0 || out.TexAccesses == 0 {
		t.Error("no work recorded")
	}
	if tt.TotalDRAM() == 0 {
		t.Error("tile table has no DRAM accesses")
	}
	// Left-half tiles must be hotter than right-half tiles.
	left := tt.DRAMAccesses[tt.Index(0, 0)]
	right := tt.DRAMAccesses[tt.Index(3, 0)]
	if left <= right*2 {
		t.Errorf("hot tile (%d) should dwarf cold tile (%d)", left, right)
	}
}

func TestTwoRUsSplitWork(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	out, _, _ := runFrame(t, smallCfg(2), sched.NewZOrderQueue(grid))
	if len(out.PerRU) != 2 {
		t.Fatal("expected 2 RU reports")
	}
	a, b := out.PerRU[0].Tiles, out.PerRU[1].Tiles
	if a+b != grid.NumTiles() {
		t.Errorf("tiles split %d+%d != %d", a, b, grid.NumTiles())
	}
	if a == 0 || b == 0 {
		t.Error("both RUs should receive work")
	}
}

func TestImageIdenticalAcrossRUCounts(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	_, _, h1 := runFrame(t, smallCfg(1), sched.NewZOrderQueue(grid))
	_, _, h2 := runFrame(t, smallCfg(2), sched.NewZOrderQueue(grid))
	super := tiling.NewSupertileGrid(grid, 2)
	_, _, h3 := runFrame(t, smallCfg(2), sched.NewStaticSupertileQueue(super, 2))
	if h1 != h2 || h1 != h3 {
		t.Error("image must not depend on scheduling")
	}
}

func TestHotColdPairingBeatsHotHot(t *testing.T) {
	// The paper's central claim: overlapping hot tiles with cold ones
	// smooths DRAM demand and finishes sooner than processing the hot
	// cluster concurrently on both RUs.
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)

	run := func(order []int) int64 {
		hier := testHier()
		eng := NewEngine(smallCfg(2), grid, hier)
		fb := raster.NewFrameBuffer(128, 64)
		out := eng.RunRaster(FrameInput{
			Scene: sc, Prims: prims, Lists: lists, FB: fb,
			Scheduler: sched.NewSingleQueue(order, "custom"), StartCycle: 0,
		})
		return out.RasterCycles
	}

	// Hot tiles are columns 0-1; cold are columns 2-3.
	var hot, cold []int
	for ty := 0; ty < grid.TilesY; ty++ {
		for tx := 0; tx < grid.TilesX; tx++ {
			if tx < 2 {
				hot = append(hot, grid.TileID(tx, ty))
			} else {
				cold = append(cold, grid.TileID(tx, ty))
			}
		}
	}
	// Hot-hot: both RUs chew the hot columns first (shared queue, hot block
	// first).
	hotFirst := append(append([]int{}, hot...), cold...)
	// Hot-cold: interleave hot and cold so the two RUs always hold one of
	// each.
	var interleaved []int
	for i := 0; i < len(hot) || i < len(cold); i++ {
		if i < len(hot) {
			interleaved = append(interleaved, hot[i])
		}
		if i < len(cold) {
			interleaved = append(interleaved, cold[i])
		}
	}
	hotHot := run(hotFirst)
	hotCold := run(interleaved)
	if hotCold >= hotHot {
		t.Errorf("hot+cold pairing (%d cycles) should beat hot+hot (%d cycles)", hotCold, hotHot)
	}
}

func TestMoreWarpsHideLatency(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	few := smallCfg(1)
	few.WarpsPerCore = 1
	many := smallCfg(1)
	many.WarpsPerCore = 16
	outFew, _, _ := runFrame(t, few, sched.NewZOrderQueue(grid))
	outMany, _, _ := runFrame(t, many, sched.NewZOrderQueue(grid))
	if outMany.RasterCycles >= outFew.RasterCycles {
		t.Errorf("16 warps (%d cycles) should beat 1 warp (%d cycles)",
			outMany.RasterCycles, outFew.RasterCycles)
	}
}

func TestOutputAggregationConsistent(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	out, _, _ := runFrame(t, smallCfg(2), sched.NewZOrderQueue(grid))
	var frags int
	var tex uint64
	for _, ru := range out.PerRU {
		frags += ru.Fragments
		tex += ru.TexAccesses
	}
	if frags != out.Fragments || tex != out.TexAccesses {
		t.Error("aggregate counters disagree with per-RU sums")
	}
	if out.TexHitRatio() < 0 || out.TexHitRatio() > 1 {
		t.Errorf("hit ratio out of range: %v", out.TexHitRatio())
	}
	if out.AvgTexLatency() <= 0 {
		t.Error("texture latency should be positive")
	}
	var empty FrameOutput
	if empty.TexHitRatio() != 0 || empty.AvgTexLatency() != 0 {
		t.Error("empty output should report zeros")
	}
}

func TestResetFrameStats(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	hier := testHier()
	eng := NewEngine(smallCfg(1), grid, hier)
	sc, prims, lists := testFrame(t, grid)
	fb := raster.NewFrameBuffer(128, 64)
	eng.RunRaster(FrameInput{Scene: sc, Prims: prims, Lists: lists, FB: fb,
		Scheduler: sched.NewZOrderQueue(grid)})
	if len(eng.TextureCaches()) != 4 {
		t.Fatalf("expected 4 texture caches, got %d", len(eng.TextureCaches()))
	}
	eng.ResetFrameStats()
	for _, c := range eng.TextureCaches() {
		if c.Stats().Accesses != 0 {
			t.Error("texture cache stats survived reset")
		}
		if len(c.AppendLines(nil)) == 0 {
			t.Error("cache contents should persist across frames")
		}
	}
	if eng.TileCache().Stats().Accesses != 0 {
		t.Error("tile cache stats survived reset")
	}
}

func TestUtilizationBounded(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	out, _, _ := runFrame(t, smallCfg(2), sched.NewZOrderQueue(grid))
	for i := range out.PerRU {
		u := out.Utilization(i, 4)
		if u < 0 || u > 1 {
			t.Errorf("RU %d utilization out of range: %v", i, u)
		}
		if u == 0 && out.PerRU[i].Tiles > 0 {
			t.Errorf("RU %d did work but shows zero utilization", i)
		}
	}
	var empty FrameOutput
	empty.PerRU = []RUStats{{}}
	if empty.Utilization(0, 4) != 0 {
		t.Error("idle RU should report zero utilization")
	}
}

func TestMemoryBoundWorkloadHasLowerUtilization(t *testing.T) {
	// The hot (DRAM-bound) content should keep cores less busy than an
	// ideal-memory run of the same workload.
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)
	run := func(ideal bool) float64 {
		hier := testHier()
		hier.IdealL1 = ideal
		eng := NewEngine(smallCfg(1), grid, hier)
		fb := raster.NewFrameBuffer(128, 64)
		out := eng.RunRaster(FrameInput{Scene: sc, Prims: prims, Lists: lists, FB: fb,
			Scheduler: sched.NewZOrderQueue(grid)})
		return out.Utilization(0, 4)
	}
	real := run(false)
	ideal := run(true)
	if real >= ideal {
		t.Errorf("memory stalls should lower utilization: real=%.3f ideal=%.3f", real, ideal)
	}
}

func TestBatchBoundaryDoesNotChangeResult(t *testing.T) {
	// The engine's batch size is a stepping granularity, not a semantic
	// knob: fragment counts and DRAM work must be identical across batch
	// sizes, and timing must stay close (interleaving resolution shifts
	// contention slightly).
	grid := tiling.NewGrid(128, 64)
	run := func(batch int) FrameOutput {
		cfg := smallCfg(2)
		cfg.BatchQuads = batch
		out, _, _ := runFrame(t, cfg, sched.NewZOrderQueue(grid))
		return out
	}
	a := run(1)
	b := run(256)
	if a.Fragments != b.Fragments || a.Instructions != b.Instructions {
		t.Error("functional work must not depend on batch size")
	}
	ratio := float64(a.RasterCycles) / float64(b.RasterCycles)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("timing diverges too much across batch sizes: %d vs %d", a.RasterCycles, b.RasterCycles)
	}
}

func TestOnTileWorkHookSeesEveryTile(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)
	hier := testHier()
	eng := NewEngine(smallCfg(2), grid, hier)
	fb := raster.NewFrameBuffer(128, 64)
	seen := map[int]int{}
	eng.RunRaster(FrameInput{
		Scene: sc, Prims: prims, Lists: lists, FB: fb,
		Scheduler:  sched.NewZOrderQueue(grid),
		OnTileWork: func(tw raster.TileWork) { seen[tw.TileID]++ },
	})
	if len(seen) != grid.NumTiles() {
		t.Fatalf("hook saw %d tiles, want %d", len(seen), grid.NumTiles())
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("tile %d reported %d times", id, n)
		}
	}
}

func TestReplayWorksMatchesLive(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)

	// Capture works live.
	hier := testHier()
	eng := NewEngine(smallCfg(1), grid, hier)
	fb := raster.NewFrameBuffer(128, 64)
	works := make([]raster.TileWork, grid.NumTiles())
	live := eng.RunRaster(FrameInput{
		Scene: sc, Prims: prims, Lists: lists, FB: fb,
		Scheduler: sched.NewZOrderQueue(grid),
		// The hook's TileWork aliases engine scratch; Clone to retain it.
		OnTileWork: func(tw raster.TileWork) { works[tw.TileID] = tw.Clone() },
	})

	// Replay against a fresh memory system: identical functional work.
	hier2 := testHier()
	eng2 := NewEngine(smallCfg(1), grid, hier2)
	replay := eng2.RunRaster(FrameInput{
		Works:     works,
		Scheduler: sched.NewZOrderQueue(grid),
	})
	if replay.Fragments != live.Fragments || replay.TexAccesses != live.TexAccesses {
		t.Error("replayed works disagree with live rendering")
	}
	if replay.RasterCycles != live.RasterCycles {
		t.Errorf("replay timing %d != live %d (same cold memory state)", replay.RasterCycles, live.RasterCycles)
	}
}
