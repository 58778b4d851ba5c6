package sim

import (
	"reflect"
	"testing"

	"repro/internal/raster"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tiling"
)

// FuzzSchedEquivalence renders the same frame through the serial reference
// engine and the parallel rasterization farm under fuzzed engine
// configurations and scheduler choices, and requires the two runs to be
// indistinguishable: identical scheduler decision logs (every NextTile grant
// in call order), identical FrameOutput, identical per-tile statistics,
// identical frame pixels and an identical telemetry fold (every tile span,
// scheduler, cache and DRAM event in order). This is the determinism
// contract of Config.Workers checked from arbitrary config bytes rather than
// the curated test matrix.
func FuzzSchedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), uint8(3), uint8(15), uint8(2), uint8(0))
	f.Add(int64(-7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(911), uint8(3), uint8(7), uint8(11), uint8(63), uint8(3), uint8(2))
	f.Add(int64(65536), uint8(2), uint8(1), uint8(7), uint8(31), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rus, cores, warps, batch, workers, policy uint8) {
		cfg := DefaultConfig()
		cfg.RasterUnits = 1 + int(rus%4)
		cfg.CoresPerRU = 1 + int(cores%8)
		cfg.WarpsPerCore = 1 + int(warps%16)
		cfg.BatchQuads = 1 + int(batch%64)

		grid := tiling.NewGrid(128, 64)
		sc, prims, lists := testFrame(t, grid)
		mkSched := func() sched.Scheduler {
			switch policy % 4 {
			case 0:
				return sched.NewZOrderQueue(grid)
			case 1:
				return sched.NewRandomQueue(grid, seed)
			case 2:
				return sched.NewHilbertQueue(grid)
			default:
				super := tiling.NewSupertileGrid(grid, 2)
				return sched.NewStaticSupertileQueue(super, cfg.RasterUnits)
			}
		}

		run := func(w int) (FrameOutput, []sched.Decision, *stats.TileTable, uint64, simHashRec) {
			c := cfg
			c.Workers = w
			hier := testHier()
			eng := NewEngine(c, grid, hier)
			fb := raster.NewFrameBuffer(128, 64)
			tt := stats.NewTileTable(grid.TilesX, grid.TilesY)
			var rec simHashRec
			eng.SetRecorder(&rec)
			hier.Rec = &rec
			var log []sched.Decision
			out := eng.RunRaster(FrameInput{
				Scene: sc, Prims: prims, Lists: lists, FB: fb,
				Scheduler: sched.Instrument(sched.Record(mkSched(), &log), &rec),
				TileStats: tt,
			})
			return out, log, tt, fb.Hash(), rec
		}

		serOut, serLog, serTT, serHash, serRec := run(1)
		parOut, parLog, parTT, parHash, parRec := run(2 + int(workers%4))
		if !reflect.DeepEqual(serLog, parLog) {
			t.Fatalf("scheduler decision logs diverge: serial %d grants, parallel %d grants", len(serLog), len(parLog))
		}
		if !reflect.DeepEqual(serOut, parOut) {
			t.Fatalf("FrameOutput diverges:\nserial:   %+v\nparallel: %+v", serOut, parOut)
		}
		if !reflect.DeepEqual(serTT, parTT) {
			t.Fatal("per-tile statistics diverge")
		}
		if serHash != parHash {
			t.Fatalf("frame hash diverges: serial %#x parallel %#x", serHash, parHash)
		}
		if serRec != parRec {
			t.Fatalf("telemetry folds diverge: serial %#x parallel %#x", serRec.h, parRec.h)
		}
	})
}
