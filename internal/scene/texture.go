// Package scene describes the input to the rendering pipelines: textures,
// materials, meshes, draw calls and cameras. Scenes are produced procedurally
// by the workloads package; the geometry and raster pipelines consume them.
package scene

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// TexelBytes is the storage size of one RGBA8 texel.
const TexelBytes = 4

// BlockDim is the side of the square texel block stored contiguously: GPUs
// tile texture memory so that a 4×4 RGBA8 block fills exactly one 64-byte
// cache line, giving 2D spatial locality.
const BlockDim = 4

// Texture is a mip-mapped 2D image living in the simulated texture address
// space. Only addresses matter to the simulator; there is no pixel data.
type Texture struct {
	ID     int
	W, H   int    // base-level dimensions in texels (powers of two)
	Levels int    // mip levels (1 = no mipmapping)
	Base   uint64 // start address in the texture region

	levels     []MipLevel // addressing of each stored level, built once
	totalBytes uint64
}

// MipLevel is the addressing of one stored mip level, derived once by
// NewTexture so that a texel lookup reads it instead of re-deriving the
// level's dimensions, block row width and offset for every sample.
type MipLevel struct {
	Addr uint64 // byte address of the level's first texel
	W, H int    // dimensions in texels
	// DU and DV are one texel's extent in normalized coordinates, 1/W and
	// 1/H: the offsets of a bilinear footprint's neighbours.
	DU, DV       float32
	fw, fh       float32 // W and H as float32
	blocksPerRow int
}

// NewTexture lays out a texture with a full mip chain down to 1×1 (or fewer
// levels if maxLevels > 0 limits it). W and H must be powers of two.
func NewTexture(id, w, h int, base uint64, maxLevels int) *Texture {
	if w <= 0 || h <= 0 || w&(w-1) != 0 || h&(h-1) != 0 {
		panic("scene: texture dimensions must be positive powers of two")
	}
	t := &Texture{ID: id, W: w, H: h, Base: base}
	levels := 1 + bits.Len(uint(max(w, h))) - 1
	if maxLevels > 0 && levels > maxLevels {
		levels = maxLevels
	}
	t.Levels = levels
	off := uint64(0)
	t.levels = make([]MipLevel, levels)
	for l := range t.levels {
		lw, lh := t.LevelDims(l)
		fw, fh := float32(lw), float32(lh)
		t.levels[l] = MipLevel{
			Addr: base + off, W: lw, H: lh,
			DU: 1 / fw, DV: 1 / fh,
			fw: fw, fh: fh,
			blocksPerRow: max(1, lw/BlockDim),
		}
		off += uint64(lw*lh) * TexelBytes
	}
	t.totalBytes = off
	return t
}

// SizeBytes returns the full storage footprint including mips.
func (t *Texture) SizeBytes() uint64 { return t.totalBytes }

// LevelDims returns the dimensions of mip level l (level 0 for l < 0).
// Both base dimensions are powers of two, so each level halves them by a
// shift, down to 1.
func (t *Texture) LevelDims(l int) (w, h int) {
	l = max(l, 0)
	return max(1, t.W>>l), max(1, t.H>>l)
}

// ClampLevel returns the stored level that a sample at level l reads: l
// clamped into [0, Levels-1].
func (t *Texture) ClampLevel(l int) int {
	return min(max(l, 0), t.Levels-1)
}

// Level returns the stored level that a sample at level l reads, level
// ClampLevel(l).
func (t *Texture) Level(l int) *MipLevel {
	return &t.levels[t.ClampLevel(l)]
}

// TexelAddr returns the byte address of the texel at normalized coordinates
// (u, v) in this level, using the blocked (tiled) layout. Coordinates wrap
// (repeat addressing), matching common game usage.
func (m *MipLevel) TexelAddr(u, v float32) uint64 {
	x := wrap(u, m.fw, m.W)
	y := wrap(v, m.fh, m.H)
	// Blocked layout: blocks of BlockDim×BlockDim texels are contiguous.
	bx, by := x/BlockDim, y/BlockDim
	inX, inY := x%BlockDim, y%BlockDim
	blockIndex := by*m.blocksPerRow + bx
	texelIndex := blockIndex*(BlockDim*BlockDim) + inY*BlockDim + inX
	return m.Addr + uint64(texelIndex)*TexelBytes
}

// wrap returns the texel index of normalized coordinate c along a level
// side of n texels (fn = float32(n), a power of two) under repeat
// addressing: c's fraction f = c - float32(int(c)), plus 1 when negative,
// times fn, truncated and clamped to n-1.
//
// For 0 ≤ c < 2^23 the same index is int(c·fn) mod n: int(c) is c's
// integer part k, c - k is exact, and c·fn is exact, so int(c·fn) is
// k·n + int(f·fn) with int(f·fn) < n. Everywhere else (negative c, whose
// f + 1 rounds, and large, infinite or NaN c) the float32 steps run as
// written.
func wrap(c, fn float32, n int) int {
	if c >= 0 && c < 1<<23 {
		return int(c*fn) & (n - 1)
	}
	c -= float32(int(c))
	if c < 0 {
		c += 1
	}
	return min(int(c*fn), n-1)
}

// TextureAllocator hands out non-overlapping texture address ranges within
// the texture region.
type TextureAllocator struct {
	next   uint64
	nextID int
}

// NewTextureAllocator starts allocation at the texture region base.
func NewTextureAllocator() *TextureAllocator {
	return &TextureAllocator{next: mem.TextureBase}
}

// Alloc creates a new texture of the given dimensions with a full mip chain.
// It panics if the texture would run past the texture region's end,
// mem.FrameBase: the trace stores texture addresses in 32 bits, which holds
// only while they stay below mem.AddrLimit.
func (a *TextureAllocator) Alloc(w, h int) *Texture {
	t := NewTexture(a.nextID, w, h, a.next, 0)
	a.nextID++
	// Keep textures line- and row-aligned.
	a.next += (t.SizeBytes() + 4095) &^ 4095
	if a.next > mem.FrameBase {
		panic(fmt.Sprintf("scene: texture %d (%d×%d) runs past the texture region's end %#x", t.ID, w, h, mem.FrameBase))
	}
	return t
}
