// Package scene describes the input to the rendering pipelines: textures,
// materials, meshes, draw calls and cameras. Scenes are produced procedurally
// by the workloads package; the geometry and raster pipelines consume them.
package scene

import (
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

	levelOffset []uint64 // byte offset of each mip level from Base
	totalBytes  uint64
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
	for l := 0; l < levels; l++ {
		t.levelOffset = append(t.levelOffset, off)
		lw, lh := t.LevelDims(l)
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

// TexelAddr returns the byte address of the texel at normalized coordinates
// (u, v) in mip level ClampLevel(l), using the blocked (tiled) layout.
// Coordinates wrap (repeat addressing), matching common game usage.
func (t *Texture) TexelAddr(u, v float32, l int) uint64 {
	l = t.ClampLevel(l)
	w, h := t.LevelDims(l)
	// Repeat wrap into [0,1).
	u -= float32(int(u))
	if u < 0 {
		u += 1
	}
	v -= float32(int(v))
	if v < 0 {
		v += 1
	}
	x := int(u * float32(w))
	y := int(v * float32(h))
	if x >= w {
		x = w - 1
	}
	if y >= h {
		y = h - 1
	}
	// Blocked layout: blocks of BlockDim×BlockDim texels are contiguous.
	blocksPerRow := max(1, w/BlockDim)
	bx, by := x/BlockDim, y/BlockDim
	inX, inY := x%BlockDim, y%BlockDim
	blockIndex := by*blocksPerRow + bx
	texelIndex := blockIndex*(BlockDim*BlockDim) + inY*BlockDim + inX
	return t.Base + t.levelOffset[l] + uint64(texelIndex)*TexelBytes
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
func (a *TextureAllocator) Alloc(w, h int) *Texture {
	t := NewTexture(a.nextID, w, h, a.next, 0)
	a.nextID++
	// Keep textures line- and row-aligned.
	a.next += (t.SizeBytes() + 4095) &^ 4095
	return t
}
