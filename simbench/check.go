package main

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/tiling"
)

// checkFrame checks one rendered frame's accounting against properties the
// simulator must have whatever its inputs: every tile is either rendered or
// skipped, the frame's time is its geometry plus raster phases, the per-tile
// DRAM census sums to the raster phase's count, and Rendering Elimination
// skips nothing when it is off or has no previous frame.
func checkFrame(cfg core.Config, grid tiling.Grid, res core.FrameResult) error {
	rendered := 0
	for _, n := range res.RUTiles {
		rendered += n
	}
	if rendered+res.TilesSkipped != grid.NumTiles() {
		return fmt.Errorf("frame %d: %d rendered + %d skipped tiles, grid has %d",
			res.Frame, rendered, res.TilesSkipped, grid.NumTiles())
	}
	if res.TotalCycles != res.GeometryCycles+res.RasterCycles {
		return fmt.Errorf("frame %d: total %d cycles != geometry %d + raster %d",
			res.Frame, res.TotalCycles, res.GeometryCycles, res.RasterCycles)
	}
	if sum := res.TileStats.TotalDRAM(); sum != uint64(res.DRAMAccesses) {
		return fmt.Errorf("frame %d: per-tile DRAM accesses sum to %d, raster phase counted %d",
			res.Frame, sum, res.DRAMAccesses)
	}
	if (!cfg.RenderElim || res.Frame == 0) && res.TilesSkipped != 0 {
		return fmt.Errorf("frame %d: %d tiles skipped with Rendering Elimination off or no previous frame",
			res.Frame, res.TilesSkipped)
	}
	return nil
}

// checkReplay checks one replay op: the decoded trace re-encodes to the
// captured bytes, the replay ran every pass, and it reproduces the pair's
// first replay exactly (first is nil on the pair's first op).
func checkReplay(captured, reencoded []byte, encErr error, first, got []core.ReplayResult, passes int) error {
	if encErr != nil {
		return fmt.Errorf("re-encoding: %w", encErr)
	}
	if !bytes.Equal(captured, reencoded) {
		return fmt.Errorf("decoded trace re-encodes to %d bytes differing from the %d captured", len(reencoded), len(captured))
	}
	if len(got) != passes {
		return fmt.Errorf("replay returned %d passes, want %d", len(got), passes)
	}
	if first != nil && !reflect.DeepEqual(first, got) {
		return fmt.Errorf("replaying the same trace and policy again differs: %+v, first %+v", got, first)
	}
	return nil
}
