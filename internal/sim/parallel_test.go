package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/raster"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// simHashRec fingerprints the engine's telemetry stream: every event folds
// order-sensitively, so two runs hash equal only if they emitted the same
// events with the same arguments in the same order.
type simHashRec struct{ h uint64 }

func (r *simHashRec) mix(vs ...uint64) {
	for _, v := range vs {
		r.h ^= v
		r.h *= 1099511628211
		r.h ^= r.h >> 29
	}
}
func (r *simHashRec) BeginFrame(frame int, startCycle int64) {
	r.mix(1, uint64(frame), uint64(startCycle))
}
func (r *simHashRec) EndFrame(endCycle int64) { r.mix(2, uint64(endCycle)) }
func (r *simHashRec) TileSpan(ru, tile int, start, end int64, quads, dram int) {
	r.mix(3, uint64(ru), uint64(tile), uint64(start), uint64(end), uint64(quads), uint64(dram))
}
func (r *simHashRec) TileSkipped(ru, tile int, cycle int64) {
	r.mix(4, uint64(ru), uint64(tile), uint64(cycle))
}
func (r *simHashRec) TileAssigned(ru, tile int) { r.mix(5, uint64(ru), uint64(tile)) }
func (r *simHashRec) SchedDecision(cycle int64, policy, order string, supertile int) {
	r.mix(6, uint64(cycle), uint64(len(policy)), uint64(len(order)), uint64(supertile))
}
func (r *simHashRec) DRAMAccess(channel, bank int, start, done int64, write, rowHit bool, queueDepth int) {
	w, rh := uint64(0), uint64(0)
	if write {
		w = 1
	}
	if rowHit {
		rh = 1
	}
	r.mix(7, uint64(channel), uint64(bank), uint64(start), uint64(done), w, rh, uint64(queueDepth))
}
func (r *simHashRec) CacheAccess(level telemetry.CacheLevel, cycle int64, hit bool) {
	h := uint64(0)
	if hit {
		h = 1
	}
	r.mix(8, uint64(level), uint64(cycle), h)
}

// replayRun is the result of rendering a few frames on one engine: every
// externally visible artifact the render farm's equivalence contract covers.
type replayRun struct {
	outs   []FrameOutput
	log    []sched.Decision
	fbHash uint64
	rec    simHashRec
	tt     *stats.TileTable
	l1s    []string // per-L1 "stats" fingerprints
	l2     string
	tile   string
}

// runReplay renders `frames` frames of the shared test scene on a fresh
// engine with the given config, recording decisions, telemetry and memory
// state. With skipEvery > 0, frames after the first mark every skipEvery-th
// tile as a Rendering Elimination hit.
func runReplay(t *testing.T, cfg Config, ideal, prefetch bool, frames, skipEvery int,
	mkSched func(frame int) sched.Scheduler) replayRun {
	t.Helper()
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)
	hier := testHier()
	hier.IdealL1 = ideal
	hier.PrefetchNextLine = prefetch
	eng := NewEngine(cfg, grid, hier)
	fb := raster.NewFrameBuffer(128, 64)
	tt := stats.NewTileTable(grid.TilesX, grid.TilesY)
	r := replayRun{tt: tt}
	eng.SetRecorder(&r.rec)
	hier.Rec = &r.rec

	var skip []bool
	start := int64(0)
	for fr := 0; fr < frames; fr++ {
		if skipEvery > 0 && fr > 0 {
			if skip == nil {
				skip = make([]bool, grid.NumTiles())
			}
			for i := range skip {
				skip[i] = i%skipEvery == 0
			}
		}
		out := eng.RunRaster(FrameInput{
			Scene: sc, Prims: prims, Lists: lists, FB: fb,
			Scheduler:  sched.Instrument(sched.Record(mkSched(fr), &r.log), &r.rec),
			TileStats:  tt,
			Skip:       skip,
			StartCycle: start,
		})
		start += out.RasterCycles
		// Deep-copy PerRU: the engine reuses its backing array next frame.
		out.PerRU = append([]RUStats(nil), out.PerRU...)
		r.outs = append(r.outs, out)
	}
	r.fbHash = fb.Hash()
	for _, c := range eng.TextureCaches() {
		r.l1s = append(r.l1s, fmt.Sprintf("%+v", c.Stats()))
	}
	r.l2 = fmt.Sprintf("%+v", hier.L2.Stats())
	r.tile = fmt.Sprintf("%+v", eng.TileCache().Stats())
	return r
}

// assertRunsEqual requires two runs to be indistinguishable across every
// artifact: frame outputs, decision logs, pixels, telemetry, per-tile stats
// and final cache statistics.
func assertRunsEqual(t *testing.T, want, got replayRun, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.outs, got.outs) {
		t.Errorf("%s: FrameOutputs diverge\nwant %+v\ngot  %+v", label, want.outs, got.outs)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		t.Errorf("%s: scheduler decision logs diverge (%d vs %d grants)", label, len(want.log), len(got.log))
	}
	if want.fbHash != got.fbHash {
		t.Errorf("%s: frame pixels diverge: %#x vs %#x", label, want.fbHash, got.fbHash)
	}
	if want.rec != got.rec {
		t.Errorf("%s: ordered telemetry streams diverge: %#x vs %#x", label, want.rec.h, got.rec.h)
	}
	if !reflect.DeepEqual(want.tt, got.tt) {
		t.Errorf("%s: per-tile statistics diverge", label)
	}
	if !reflect.DeepEqual(want.l1s, got.l1s) {
		t.Errorf("%s: texture L1 statistics diverge\nwant %v\ngot  %v", label, want.l1s, got.l1s)
	}
	if want.l2 != got.l2 {
		t.Errorf("%s: L2 statistics diverge: %s vs %s", label, want.l2, got.l2)
	}
	if want.tile != got.tile {
		t.Errorf("%s: tile cache statistics diverge: %s vs %s", label, want.tile, got.tile)
	}
}

// TestReplayParallelMatchesSerial is the byte-identity proof of the render
// farm (parallel.go) feeding the timing replay: across RU counts, render
// worker counts ("rw"), memory modes, scheduler policies and Rendering
// Elimination skip vectors, rasterizing on Config.Workers goroutines must
// reproduce the serial engine exactly, over multiple frames with persistent
// cache state — ordered telemetry and the final L1, L2 and Tile cache
// statistics included.
func TestReplayParallelMatchesSerial(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	zorder := func(int) sched.Scheduler { return sched.NewZOrderQueue(grid) }
	super := func(int) sched.Scheduler {
		return sched.NewStaticSupertileQueue(tiling.NewSupertileGrid(grid, 2), 2)
	}
	cases := []struct {
		name            string
		rus, rw         int
		ideal, prefetch bool
		skipEvery       int
		mk              func(int) sched.Scheduler
	}{
		{name: "1ru_rw2", rus: 1, rw: 2, mk: zorder},
		{name: "1ru_rw4", rus: 1, rw: 4, mk: zorder},
		{name: "1ru_rw8", rus: 1, rw: 8, mk: zorder},
		{name: "1ru_rw4_prefetch", rus: 1, rw: 4, prefetch: true, mk: zorder},
		{name: "1ru_rw4_ideal", rus: 1, rw: 4, ideal: true, mk: zorder},
		{name: "1ru_rw4_skip", rus: 1, rw: 4, skipEvery: 3, mk: zorder},
		{name: "2ru_rw2", rus: 2, rw: 2, mk: zorder},
		{name: "2ru_rw4", rus: 2, rw: 4, mk: zorder},
		{name: "2ru_rw8_skip", rus: 2, rw: 8, skipEvery: 3, mk: zorder},
		{name: "2ru_rw4_supertile", rus: 2, rw: 4, mk: super},
		{name: "2ru_rw4_skip_prefetch", rus: 2, rw: 4, skipEvery: 2, prefetch: true, mk: super},
		{name: "2ru_rw8_ideal_supertile", rus: 2, rw: 8, ideal: true, mk: super},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const frames = 3
			ref := runReplay(t, smallCfg(tc.rus), tc.ideal, tc.prefetch, frames, tc.skipEvery, tc.mk)

			par := smallCfg(tc.rus)
			par.Workers = tc.rw
			got := runReplay(t, par, tc.ideal, tc.prefetch, frames, tc.skipEvery, tc.mk)
			assertRunsEqual(t, ref, got, tc.name)
		})
	}
}

// TestReplayMetamorphicWorkers pins the metamorphic property of the render
// farm: adding workers never changes any frame's cycles, pixels or
// statistics. Successive worker counts are compared directly against each
// other (not via a serial reference), so a bug that shifted all parallel
// runs identically relative to serial would still have to keep them mutually
// consistent here.
func TestReplayMetamorphicWorkers(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	mk := func(int) sched.Scheduler { return sched.NewZOrderQueue(grid) }
	var prev *replayRun
	prevW := 0
	for _, w := range []int{2, 3, 4, 8} {
		cfg := smallCfg(1)
		cfg.Workers = w
		run := runReplay(t, cfg, false, false, 2, 0, mk)
		if prev != nil {
			assertRunsEqual(t, *prev, run, fmt.Sprintf("workers %d vs %d", prevW, w))
		}
		prev, prevW = &run, w
	}
}

// captureWorks renders one frame of the shared test scene on a fresh engine
// and returns its output together with a deep copy of every tile's work, as
// the OnTileWork hook delivers it to trace capture.
func captureWorks(t *testing.T, cfg Config, grid tiling.Grid) (FrameOutput, []raster.TileWork) {
	t.Helper()
	sc, prims, lists := testFrame(t, grid)
	works := make([]raster.TileWork, grid.NumTiles())
	out := NewEngine(cfg, grid, testHier()).RunRaster(FrameInput{
		Scene: sc, Prims: prims, Lists: lists, FB: raster.NewFrameBuffer(grid.ScreenW, grid.ScreenH),
		Scheduler: sched.NewZOrderQueue(grid),
		// The hook's TileWork aliases engine scratch; Clone to retain it.
		OnTileWork: func(tw raster.TileWork) { works[tw.TileID] = tw.Clone() },
	})
	return out, works
}

// TestReplayComposesWithSimWorkers proves trace capture composes with the
// render farm: the tile work the OnTileWork hook hands out when Workers
// goroutines rasterize must be exactly the serial engine's, tile for tile,
// and the capturing frame's output must not change either.
func TestReplayComposesWithSimWorkers(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	for _, rus := range []int{1, 2} {
		refOut, refWorks := captureWorks(t, smallCfg(rus), grid)
		cfg := smallCfg(rus)
		cfg.Workers = 4
		gotOut, gotWorks := captureWorks(t, cfg, grid)
		if !reflect.DeepEqual(refOut, gotOut) {
			t.Errorf("%dru: capturing frame diverges on the render farm:\nserial %+v\nfarm   %+v", rus, refOut, gotOut)
		}
		if !reflect.DeepEqual(refWorks, gotWorks) {
			t.Errorf("%dru: tile work captured on the render farm differs from the serial capture", rus)
		}
	}
}

// TestReplayWorksModeMatchesSerial covers the trace-replay front door:
// caller-provided FrameInput.Works must re-time to exactly the output of the
// frame that captured them, also on an engine that owns a render farm — the
// farm stands aside rather than re-rendering — and with a Rendering
// Elimination skip vector in play.
func TestReplayWorksModeMatchesSerial(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	live, works := captureWorks(t, smallCfg(1), grid)

	run := func(workers int, skip []bool) FrameOutput {
		cfg := smallCfg(1)
		cfg.Workers = workers
		eng := NewEngine(cfg, grid, testHier())
		return eng.RunRaster(FrameInput{Works: works, Scheduler: sched.NewZOrderQueue(grid), Skip: skip})
	}
	if got := run(0, nil); !reflect.DeepEqual(live, got) {
		t.Errorf("Works-mode replay diverges from the capturing frame:\nlive   %+v\nreplay %+v", live, got)
	}
	if got := run(4, nil); !reflect.DeepEqual(live, got) {
		t.Errorf("Works-mode replay on a render-farm engine diverges:\nlive   %+v\nreplay %+v", live, got)
	}
	skip := make([]bool, grid.NumTiles())
	for i := range skip {
		skip[i] = i%3 == 0
	}
	ref := run(0, skip)
	if ref.TilesSkipped == 0 {
		t.Fatal("skip vector skipped nothing")
	}
	if got := run(4, skip); !reflect.DeepEqual(ref, got) {
		t.Errorf("Works-mode replay with skips diverges on a render-farm engine:\nserial %+v\nfarm   %+v", ref, got)
	}
}

// TestRenderFarmPanicPropagates pins the farm's failure contract: a panic on
// a worker goroutine resurfaces on the RunRaster caller after the barrier,
// as the same panic would in the serial engine's inline rasterization.
func TestRenderFarmPanicPropagates(t *testing.T) {
	grid := tiling.NewGrid(128, 64)
	sc, prims, lists := testFrame(t, grid)
	cfg := smallCfg(1)
	cfg.Workers = 4
	eng := NewEngine(cfg, grid, testHier())
	// A corrupt tile list: tile 0 references a primitive past the end of the
	// frame's primitive slice, so the worker rendering it panics out of range.
	bad := &tiling.TileLists{Grid: lists.Grid, Lists: append([][]tiling.PrimRef(nil), lists.Lists...)}
	bad.Lists[0] = []tiling.PrimRef{{Prim: len(prims)}}
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate to RunRaster")
		}
	}()
	eng.RunRaster(FrameInput{
		Scene: sc, Prims: prims, Lists: bad, FB: raster.NewFrameBuffer(128, 64),
		Scheduler: sched.NewZOrderQueue(grid),
	})
}
