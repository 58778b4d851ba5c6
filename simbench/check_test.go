package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// newTestFrameBench builds and warms up a frame workload as a run does.
func newTestFrameBench(t *testing.T, name string, traced bool) *frameBench {
	t.Helper()
	b, err := specs[name].newBench(options{workload: name, trace: traced})
	if err != nil {
		t.Fatal(err)
	}
	fb := b.(*frameBench)
	fb.setUp(0)
	if err := fb.checkSetUp(); err != nil {
		t.Fatal(err)
	}
	return fb
}

// Every frame check must pass on the real frame and catch a planted fault.
func TestFrameChecksCatchPlantedFaults(t *testing.T) {
	for _, name := range []string{"frame-sus", "frame-anb-re"} {
		t.Run(name, func(t *testing.T) {
			b := newTestFrameBench(t, name, false)
			sc := b.game.FrameScene(b.frame)
			res := b.gpu.RenderFrame(sc)
			if err := b.check(res, sc, true, nil, 0, -1, nil); err != nil {
				t.Fatalf("clean frame: %v", err)
			}
			if b.cfg.RenderElim && res.TilesSkipped == 0 {
				t.Fatal("Rendering Elimination skipped no tile on a coherent frame")
			}
			faults := map[string]func(r *core.FrameResult){
				"cycles":   func(r *core.FrameResult) { r.TotalCycles++ },
				"tiles":    func(r *core.FrameResult) { r.TilesSkipped++ },
				"dram":     func(r *core.FrameResult) { r.TileStats.DRAMAccesses[3]++ },
				"pixels":   func(r *core.FrameResult) { r.FrameHash ^= 1 },
				"frame0":   func(r *core.FrameResult) { moveToSkipped(r); r.Frame = 0 },
				"re-state": func(r *core.FrameResult) { moveToSkipped(r); r.Frame = 1 },
			}
			for fault, plant := range faults {
				if fault == "re-state" && b.cfg.RenderElim {
					continue // skipping is legal with RE on after frame 0
				}
				r := res
				r.TileStats = res.TileStats.Clone()
				r.RUTiles = append([]int(nil), res.RUTiles...)
				plant(&r)
				if err := b.check(r, sc, true, nil, 0, -1, nil); err == nil {
					t.Errorf("planted %s fault not caught", fault)
				}
			}
			// A stale frame: the next scene's reference render cannot
			// reproduce this frame's pixels.
			next := b.game.FrameScene(b.frame + 1)
			if err := b.check(res, next, true, nil, 0, -1, nil); err == nil || !strings.Contains(err.Error(), "hashes") {
				t.Errorf("stale pixels not caught: %v", err)
			}
		})
	}
}

// A traced run's split must follow the frame it times: the same Rendering
// Elimination skip set and the same scheduler. Each fault gets a fresh
// split, since checking a frame advances the split's signature table.
func TestSplitChecksCatchPlantedFaults(t *testing.T) {
	faults := map[string]func(r *core.FrameResult){
		"clean":     func(*core.FrameResult) {},
		"skip-set":  moveToSkipped,
		"scheduler": func(r *core.FrameResult) { r.SchedulerName = "hilbert" },
	}
	for fault, plant := range faults {
		b := newTestFrameBench(t, "frame-anb-re", true)
		sc := b.game.FrameScene(b.frame)
		r := b.gpu.RenderFrame(sc)
		r.RUTiles = append([]int(nil), r.RUTiles...)
		plant(&r)
		err := b.check(r, sc, true, nil, 0, -1, nil)
		if (err == nil) != (fault == "clean") {
			t.Errorf("%s: check returned %v", fault, err)
		}
	}
}

// moveToSkipped turns one rendered tile into a skipped one, keeping the
// tile count whole.
func moveToSkipped(r *core.FrameResult) {
	r.RUTiles[0]--
	r.TilesSkipped++
}

func TestReplayChecksCatchPlantedFaults(t *testing.T) {
	captured := []byte("LTRC\x01trace")
	first := []core.ReplayResult{{Pass: 0, RasterCycles: 100, DRAMAccesses: 7}, {Pass: 1, RasterCycles: 90, DRAMAccesses: 6}}
	same := append([]core.ReplayResult(nil), first...)
	if err := checkReplay(captured, append([]byte(nil), captured...), nil, first, same, 2); err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	if err := checkReplay(captured, captured, nil, nil, same, 2); err != nil {
		t.Fatalf("first replay of a pair: %v", err)
	}
	flipped := append([]byte(nil), captured...)
	flipped[len(flipped)-1] ^= 1
	changed := append([]core.ReplayResult(nil), first...)
	changed[1].DRAMAccesses++
	for fault, err := range map[string]error{
		"re-encoding differs": checkReplay(captured, flipped, nil, first, same, 2),
		"encoder error":       checkReplay(captured, captured, errors.New("short write"), first, same, 2),
		"missing pass":        checkReplay(captured, captured, nil, nil, same[:1], 2),
		"second replay":       checkReplay(captured, captured, nil, first, changed, 2),
	} {
		if err == nil {
			t.Errorf("planted fault %q not caught", fault)
		}
	}
}

// The reference render reproduces RenderFrame's pixels on another game at a
// non-default layout seed too.
func TestReferenceRenderOnCCSAtOtherSeed(t *testing.T) {
	b, err := newFrameBench("CCS", false, options{seed: 5, seedSet: true})
	if err != nil {
		t.Fatal(err)
	}
	fb := b.(*frameBench)
	fb.setUp(1)
	if err := fb.checkSetUp(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sc := fb.game.FrameScene(fb.frame)
		res := fb.gpu.RenderFrame(sc)
		fb.frame++
		if err := fb.check(res, sc, true, nil, i, -1, nil); err != nil {
			t.Fatal(err)
		}
	}
}
