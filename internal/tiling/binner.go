package tiling

import (
	"repro/internal/gpipe"
	"repro/internal/mem"
)

// PBEntryBytes is the Parameter Buffer footprint of one (tile, primitive)
// list entry: a compressed primitive reference plus state words.
const PBEntryBytes = 32

// PrimRef is one Parameter Buffer entry: a primitive index plus the address
// the Tile Fetcher reads it from.
type PrimRef struct {
	Prim int    // index into the frame's primitive slice
	Addr uint64 // Parameter Buffer address of this entry
}

// TileLists is the Polygon List Builder output: per-tile primitive lists in
// program order, backed by the Parameter Buffer.
type TileLists struct {
	Grid  Grid
	Lists [][]PrimRef
	// PBBytes is the Parameter Buffer size consumed this frame.
	PBBytes uint64
	// Binned counts (tile, prim) pairs — the total Tile Fetcher workload.
	Binned int
}

// Binner is a reusable Polygon List Builder: the per-tile lists keep their
// backing arrays between frames, so steady-state binning allocates nothing
// once the lists reach the scene's watermark. The TileLists returned by Bin
// aliases the Binner's storage and is valid until the next Bin call.
type Binner struct {
	tl TileLists
}

// Bin runs the Polygon List Builder: each primitive is appended (in program
// order) to the list of every tile its screen bounding box overlaps. The
// conservative bbox test matches the hardware's coarse binning rasterizer.
// The lists reuse the Binner's per-tile storage.
//
//libra:hotpath
//libra:transient
func (bn *Binner) Bin(grid Grid, prims []gpipe.Primitive) *TileLists {
	tl := &bn.tl
	tl.Grid = grid
	tl.PBBytes = 0
	tl.Binned = 0
	if cap(tl.Lists) < grid.NumTiles() {
		tl.Lists = make([][]PrimRef, grid.NumTiles())
	}
	tl.Lists = tl.Lists[:grid.NumTiles()]
	for i := range tl.Lists {
		tl.Lists[i] = tl.Lists[i][:0]
	}
	next := mem.ParamBase
	for pi := range prims {
		b := prims[pi].ScreenBounds(grid.ScreenW, grid.ScreenH)
		if b.Empty() {
			continue
		}
		tx0, ty0, tx1, ty1 := grid.TilesCovering(b)
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				id := grid.TileID(tx, ty)
				tl.Lists[id] = append(tl.Lists[id], PrimRef{Prim: pi, Addr: next})
				next += PBEntryBytes
				tl.Binned++
			}
		}
	}
	checkPBEnd(next)
	tl.PBBytes = next - mem.ParamBase
	return tl
}

// checkPBEnd panics if a Parameter Buffer ending at end runs past
// mem.AddrLimit: the trace stores its entry addresses in 32 bits. Bin's
// cursor only grows, so checking where it ends checks every entry.
func checkPBEnd(end uint64) {
	if end > mem.AddrLimit {
		panic("tiling: the Parameter Buffer runs past the 32-bit address space")
	}
}
