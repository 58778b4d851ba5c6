package sched

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/tiling"
)

func grid() tiling.Grid { return tiling.NewGrid(256, 128) } // 8x4 tiles

func drain(s Scheduler, numRUs int) [][]int {
	out := make([][]int, numRUs)
	done := make([]bool, numRUs)
	for {
		progress := false
		for ru := 0; ru < numRUs; ru++ {
			if done[ru] {
				continue
			}
			t := s.NextTile(ru)
			if t < 0 {
				done[ru] = true
				continue
			}
			out[ru] = append(out[ru], t)
			progress = true
		}
		if !progress {
			return out
		}
	}
}

func assertPartition(t *testing.T, g tiling.Grid, assignment [][]int) {
	t.Helper()
	seen := make([]int, g.NumTiles())
	for _, tiles := range assignment {
		for _, id := range tiles {
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("tile %d assigned %d times", id, n)
		}
	}
}

func TestSingleQueueCoversAllTiles(t *testing.T) {
	g := grid()
	for _, rus := range []int{1, 2, 3, 4} {
		s := NewZOrderQueue(g)
		assignment := drain(s, rus)
		assertPartition(t, g, assignment)
	}
}

func TestSingleQueueBalanced(t *testing.T) {
	g := grid()
	s := NewZOrderQueue(g)
	a := drain(s, 2)
	if len(a[0]) != len(a[1]) {
		t.Errorf("round-robin drain imbalance: %d vs %d", len(a[0]), len(a[1]))
	}
}

func TestSupertileQueuePartition(t *testing.T) {
	g := grid()
	for _, k := range []int{2, 4} {
		super := tiling.NewSupertileGrid(g, k)
		s := NewStaticSupertileQueue(super, 2)
		assignment := drain(s, 2)
		assertPartition(t, g, assignment)
	}
}

func TestSupertileQueueKeepsSupertileOnOneRU(t *testing.T) {
	g := grid()
	super := tiling.NewSupertileGrid(g, 2)
	s := NewStaticSupertileQueue(super, 2)
	assignment := drain(s, 2)
	// Every supertile's tiles must all land on the same RU.
	owner := map[int]int{}
	for ru, tiles := range assignment {
		for _, tid := range tiles {
			sid := super.SupertileOf(tid)
			if prev, ok := owner[sid]; ok && prev != ru {
				t.Fatalf("supertile %d split across RUs", sid)
			}
			owner[sid] = ru
		}
	}
}

func rankedTable(g tiling.Grid, k int, hot ...int) (tiling.SupertileGrid, *stats.TileTable) {
	super := tiling.NewSupertileGrid(g, k)
	tt := stats.NewTileTable(g.TilesX, g.TilesY)
	for tid := 0; tid < g.NumTiles(); tid++ {
		tt.AddInstructions(tid, 1000)
		tt.AddDRAM(tid, 1)
	}
	// Mark some supertiles hot by inflating DRAM accesses of their tiles.
	for _, sid := range hot {
		for _, tid := range super.TilesOf(sid) {
			tt.AddDRAM(tid, 500)
		}
	}
	return super, tt
}

func TestRankSupertilesHotFirst(t *testing.T) {
	g := grid()
	super, tt := rankedTable(g, 2, 3, 5)
	ranked := RankSupertiles(super, tt)
	if len(ranked) != super.NumSupertiles() {
		t.Fatalf("ranking size = %d", len(ranked))
	}
	firstTwo := map[int]bool{ranked[0]: true, ranked[1]: true}
	if !firstTwo[3] || !firstTwo[5] {
		t.Errorf("hot supertiles should rank first, got %v", ranked[:4])
	}
}

func TestRankSupertilesIsPermutation(t *testing.T) {
	g := grid()
	super, tt := rankedTable(g, 4, 0)
	ranked := RankSupertiles(super, tt)
	seen := map[int]bool{}
	for _, id := range ranked {
		if seen[id] {
			t.Fatalf("supertile %d ranked twice", id)
		}
		seen[id] = true
	}
	if len(seen) != super.NumSupertiles() {
		t.Error("ranking must be a permutation")
	}
}

func TestRankDeterministicOnTies(t *testing.T) {
	g := grid()
	super, tt := rankedTable(g, 2) // all equal temperature
	a := RankSupertiles(super, tt)
	b := RankSupertiles(super, tt)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tied ranking must be deterministic")
		}
	}
}

func TestTemperatureHotColdSplit(t *testing.T) {
	g := grid()
	super, tt := rankedTable(g, 2, 0, 1, 2)
	ranked := RankSupertiles(super, tt)
	s := NewTemperature(super, ranked, 2)
	assignment := drain(s, 2)
	assertPartition(t, g, assignment)

	// RU 0's first supertile must be the hottest; RU 1's first the coldest.
	hot := super.SupertileOf(assignment[0][0])
	if hot != ranked[0] {
		t.Errorf("RU0 should start with hottest supertile %d, got %d", ranked[0], hot)
	}
	cold := super.SupertileOf(assignment[1][0])
	if cold != ranked[len(ranked)-1] {
		t.Errorf("RU1 should start with coldest supertile %d, got %d", ranked[len(ranked)-1], cold)
	}
}

func TestTemperatureMultiRU(t *testing.T) {
	g := grid()
	super, tt := rankedTable(g, 2, 0)
	ranked := RankSupertiles(super, tt)
	for _, rus := range []int{2, 3, 4} {
		s := NewTemperature(super, ranked, rus)
		assignment := drain(s, rus)
		assertPartition(t, g, assignment)
		// Only RU 0 consumes the hot end.
		if super.SupertileOf(assignment[0][0]) != ranked[0] {
			t.Errorf("%d RUs: hot end not on RU0", rus)
		}
	}
}

func TestAdaptiveDefaults(t *testing.T) {
	a := NewAdaptive(DefaultAdaptiveConfig())
	if a.Mode() != ModeTemperature {
		t.Error("controller should start in temperature mode")
	}
	if a.SupertileSize() != 4 {
		t.Errorf("initial supertile = %d, want 4", a.SupertileSize())
	}
	if ModeZOrder.String() != "zorder" || ModeTemperature.String() != "temperature" {
		t.Error("mode names wrong")
	}
}

func TestAdaptiveHighHitRatioSelectsZOrder(t *testing.T) {
	a := NewAdaptive(DefaultAdaptiveConfig())
	a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.95}, ModeZOrder)
	if a.Mode() != ModeZOrder {
		t.Error("hit ratio above threshold should select Z-order")
	}
}

func TestAdaptiveLowHitRatioSelectsTemperature(t *testing.T) {
	a := NewAdaptive(DefaultAdaptiveConfig())
	a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.5}, ModeZOrder)
	if a.Mode() != ModeTemperature {
		t.Error("low hit ratio should select temperature order")
	}
}

func TestAdaptiveCrossModeComparisonWins(t *testing.T) {
	// Low hit ratio, but the measured Z-order frames are >3% faster than
	// the measured temperature frames: the controller must settle on
	// Z-order despite the hit-ratio rule preferring temperature.
	a := NewAdaptive(DefaultAdaptiveConfig())
	a.Observe(FrameMetrics{RasterCycles: 1400, TexHitRatio: 0.5}, ModeZOrder) // cold frame, ignored
	a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.5}, ModeZOrder)
	a.Observe(FrameMetrics{RasterCycles: 1100, TexHitRatio: 0.5}, ModeTemperature)
	if a.Mode() != ModeZOrder {
		t.Error("temperature measured 10% slower: controller should pick Z-order")
	}
	// And the reverse: temperature measured faster under a high hit ratio
	// engages the §III-D exception.
	b := NewAdaptive(DefaultAdaptiveConfig())
	b.Observe(FrameMetrics{RasterCycles: 1400, TexHitRatio: 0.95}, ModeZOrder) // cold frame, ignored
	b.Observe(FrameMetrics{RasterCycles: 1100, TexHitRatio: 0.95}, ModeZOrder)
	b.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.95}, ModeTemperature)
	if b.Mode() != ModeTemperature {
		t.Error("temperature measured 10% faster: exception rule should keep it")
	}
}

func TestAdaptiveSmallDeltaFollowsHitRatioRule(t *testing.T) {
	// Cross-mode delta below the 3% threshold: the hit-ratio rule decides.
	a := NewAdaptive(DefaultAdaptiveConfig())
	a.Observe(FrameMetrics{RasterCycles: 1300, TexHitRatio: 0.5}, ModeZOrder) // cold
	a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.5}, ModeZOrder)
	a.Observe(FrameMetrics{RasterCycles: 1010, TexHitRatio: 0.5}, ModeTemperature)
	if a.Mode() != ModeTemperature {
		t.Error("1% delta is insignificant; low hit ratio should keep temperature")
	}
}

func TestAdaptiveReprobes(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.ReprobeInterval = 4
	a := NewAdaptive(cfg)
	// Z-order measured much faster: controller settles on Z-order.
	a.Observe(FrameMetrics{RasterCycles: 1200, TexHitRatio: 0.5}, ModeZOrder) // cold
	a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.5}, ModeZOrder)
	a.Observe(FrameMetrics{RasterCycles: 2000, TexHitRatio: 0.5}, ModeTemperature)
	probed := false
	for i := 0; i < 10; i++ {
		mode := a.Mode()
		if mode == ModeTemperature {
			probed = true
			// Keep temperature slow: the controller should return to
			// Z-order right after the probe.
			a.Observe(FrameMetrics{RasterCycles: 2000, TexHitRatio: 0.5}, mode)
		} else {
			a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.5}, mode)
		}
	}
	if !probed {
		t.Error("controller never re-probed the unused mode")
	}
	if a.Mode() != ModeZOrder && a.Mode() != ModeTemperature {
		t.Error("invalid mode")
	}
}

func TestAdaptiveSceneChangeInvalidatesStaleSample(t *testing.T) {
	a := NewAdaptive(DefaultAdaptiveConfig())
	a.Observe(FrameMetrics{RasterCycles: 1200, TexHitRatio: 0.5}, ModeZOrder) // cold
	a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.5}, ModeZOrder)
	a.Observe(FrameMetrics{RasterCycles: 5000, TexHitRatio: 0.5}, ModeTemperature)
	// Z-order looked 5x faster, but then the scene changes drastically
	// while rendering Z-order frames; the temperature sample must not pin
	// the decision with stale data.
	a.Observe(FrameMetrics{RasterCycles: 6000, TexHitRatio: 0.5}, ModeZOrder)
	// After invalidation, low hit ratio prefers temperature again.
	if a.Mode() != ModeTemperature {
		t.Error("stale cross-mode sample should be invalidated after a scene change")
	}
}

func TestAdaptiveSupertileSizeStaysValid(t *testing.T) {
	a := NewAdaptive(DefaultAdaptiveConfig())
	cycles := int64(1000)
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			cycles += 100
		} else {
			cycles -= 60
		}
		a.Observe(FrameMetrics{RasterCycles: cycles, TexHitRatio: 0.5}, a.Mode())
		k := a.SupertileSize()
		valid := false
		for _, v := range tiling.ValidSupertileSizes {
			if v == k {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("supertile size %d invalid after %d frames", k, i)
		}
	}
}

func TestAdaptiveStableWhenPerformanceStable(t *testing.T) {
	a := NewAdaptive(DefaultAdaptiveConfig())
	a.Observe(FrameMetrics{RasterCycles: 1000, TexHitRatio: 0.5}, ModeTemperature)
	size := a.SupertileSize()
	for i := 0; i < 10; i++ {
		a.Observe(FrameMetrics{RasterCycles: 1001, TexHitRatio: 0.5}, a.Mode())
		if a.SupertileSize() != size {
			t.Fatal("supertile size should not change when perf variation is below threshold")
		}
	}
}

func TestRankingHardwareCost(t *testing.T) {
	// §III-E: 510 supertiles → 64-bit entries, ~4KB table, ≤13761 cycles.
	if RankTableEntryBits != 64 {
		t.Errorf("entry bits = %d, want 64", RankTableEntryBits)
	}
	if got := RankTableBytes(510); got != 4080 {
		t.Errorf("table bytes = %d, want 4080 (~4KB)", got)
	}
	cyc := RankingCycles(510)
	if cyc > 13800 || cyc < 10000 {
		t.Errorf("ranking cycles = %d, want ≈13761", cyc)
	}
	if RankingCycles(1) != 0 {
		t.Error("trivial ranking should cost nothing")
	}
}

func TestMoreRUsThanSupertiles(t *testing.T) {
	// 8x4 tiles at 16x16 supertiles -> exactly 1 supertile; extra RUs must
	// simply receive no work, never panic or duplicate.
	g := grid()
	super := tiling.NewSupertileGrid(g, 16)
	s := NewStaticSupertileQueue(super, 4)
	assignment := drain(s, 4)
	assertPartition(t, g, assignment)
	busy := 0
	for _, tiles := range assignment {
		if len(tiles) > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("one supertile should occupy exactly one RU, got %d busy", busy)
	}
}

func TestPFRScheduler(t *testing.T) {
	g := grid()
	p := NewPFR(g, 2)
	if p.Name() != "pfr" {
		t.Error("wrong name")
	}
	a := drain(p, 2)
	// Each RU must traverse the complete grid (its own frame).
	if len(a[0]) != g.NumTiles() || len(a[1]) != g.NumTiles() {
		t.Fatalf("PFR queues: %d and %d tiles, want %d each", len(a[0]), len(a[1]), g.NumTiles())
	}
	// Both frames use the same traversal; RU 1's ids index the second frame.
	for i := range a[0] {
		if a[1][i] != a[0][i]+g.NumTiles() {
			t.Fatalf("step %d: RU 1 got id %d, want %d (RU 0's tile %d offset by %d)",
				i, a[1][i], a[0][i]+g.NumTiles(), a[0][i], g.NumTiles())
		}
	}
}

func TestSingleQueueExhaustionReturnsMinusOne(t *testing.T) {
	s := NewSingleQueue([]int{7}, "one")
	if s.NextTile(0) != 7 {
		t.Fatal("first pop wrong")
	}
	for i := 0; i < 3; i++ {
		if s.NextTile(0) != -1 {
			t.Fatal("exhausted queue must keep returning -1")
		}
	}
}
