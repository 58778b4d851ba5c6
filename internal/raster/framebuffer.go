// Package raster implements the per-tile Raster Pipeline (§II-A): edge
// function rasterization into 2×2 quads, perspective-correct attribute
// interpolation, Early-Z/Late-Z against the on-chip Z-Buffer, the fragment
// stage (procedural texture sampling that generates the texture address
// streams), blending into the on-chip Color Buffer, and the Color Buffer
// flush to the Frame Buffer.
//
// Rendering is done in a *functional* pass that produces both the final
// pixels (for the image-invariance property) and a TileWork trace — quads
// with instruction counts and texture line addresses — that the timing
// engine replays against the memory hierarchy.
package raster

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/tiling"
)

// FrameBuffer is the full-screen color target in main memory.
type FrameBuffer struct {
	W, H   int
	Pixels []uint32
}

// NewFrameBuffer allocates a cleared frame buffer.
func NewFrameBuffer(w, h int) *FrameBuffer {
	return &FrameBuffer{W: w, H: h, Pixels: make([]uint32, w*h)}
}

// Clear resets every pixel to the clear color.
func (fb *FrameBuffer) Clear(color uint32) {
	for i := range fb.Pixels {
		fb.Pixels[i] = color
	}
}

// Hash returns the 64-bit FNV-1a digest of the pixels' little-endian bytes;
// identical rendering must produce identical hashes regardless of tile
// scheduling.
func (fb *FrameBuffer) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range fb.Pixels {
		h = (h ^ uint64(p&0xff)) * prime64
		h = (h ^ uint64(p>>8&0xff)) * prime64
		h = (h ^ uint64(p>>16&0xff)) * prime64
		h = (h ^ uint64(p>>24)) * prime64
	}
	return h
}

// PPM renders the frame as a binary PPM (P6) image for visual inspection of
// the rendered output.
func (fb *FrameBuffer) PPM() []byte {
	header := fmt.Sprintf("P6\n%d %d\n255\n", fb.W, fb.H)
	out := make([]byte, 0, len(header)+fb.W*fb.H*3)
	out = append(out, header...)
	// Flip vertically: the renderer's y axis points up, image files' down.
	for y := fb.H - 1; y >= 0; y-- {
		for x := 0; x < fb.W; x++ {
			p := fb.Pixels[y*fb.W+x]
			out = append(out, byte(p>>16), byte(p>>8), byte(p))
		}
	}
	return out
}

// PixelAddr returns the main-memory address of pixel (x, y) in the Frame
// Buffer region.
func (fb *FrameBuffer) PixelAddr(x, y int) uint64 {
	return mem.FrameBase + uint64(y*fb.W+x)*4
}

// AppendTileFlushLines appends to dst the distinct frame-buffer line
// addresses written when the given tile's Color Buffer is flushed (§II-A:
// the Color Buffer is entirely written to main memory once per tile) and
// returns the extended slice, allocating only when dst lacks capacity.
// Each address fits in 32 bits: the largest frame buffer libra.Config
// allows, libra.MaxScreenDim² pixels, ends at 0xC000_0000.
//
//libra:hotpath
//libra:transient
func (fb *FrameBuffer) AppendTileFlushLines(dst []uint32, grid tiling.Grid, tileID int) []uint32 {
	r := grid.TileRect(tileID)
	last := ^uint32(0)
	for y := r.MinY; y <= r.MaxY; y++ {
		for x := r.MinX; x <= r.MaxX; x++ {
			line := uint32(fb.PixelAddr(x, y)) &^ 63
			if line != last {
				dst = append(dst, line)
				last = line
			}
		}
	}
	return dst
}
