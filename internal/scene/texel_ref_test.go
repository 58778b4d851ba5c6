package scene

import (
	"math"
	"math/rand"
	"testing"
)

// refTexelAddr is TexelAddr as it was before NewTexture tabulated each
// level's addressing: it clamps the level, derives the level's dimensions,
// block row width and offset, and then addresses the texel, all per sample.
// TestTexelAddrMatchesReference holds MipLevel.TexelAddr to it.
func refTexelAddr(t *Texture, u, v float32, l int) uint64 {
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
	blocksPerRow := max(1, w/BlockDim)
	bx, by := x/BlockDim, y/BlockDim
	inX, inY := x%BlockDim, y%BlockDim
	blockIndex := by*blocksPerRow + bx
	texelIndex := blockIndex*(BlockDim*BlockDim) + inY*BlockDim + inX
	return t.Base + refLevelOffset(t, l) + uint64(texelIndex)*TexelBytes
}

// refLevelOffset is the byte offset of level l from the texture's base: the
// sizes of the levels before it.
func refLevelOffset(t *Texture, l int) uint64 {
	off := uint64(0)
	for i := 0; i < l; i++ {
		w, h := t.LevelDims(i)
		off += uint64(w*h) * TexelBytes
	}
	return off
}

// TestTexelAddrMatchesReference checks the level table's addressing against
// refTexelAddr on every level (and levels below and past the chain) of
// square, non-square and truncated-chain textures, over a UV grid plus
// negative, ≥1, signed-zero, NaN, infinite and ±1e9 coordinates.
func TestTexelAddrMatchesReference(t *testing.T) {
	textures := []*Texture{
		NewTexture(0, 64, 64, 0x4000_0000, 0),
		NewTexture(1, 256, 32, 0x4010_0000, 0),
		NewTexture(2, 8, 128, 0x4020_0000, 0),
		NewTexture(3, 1, 1, 0x4030_0000, 0),
		NewTexture(4, 2, 512, 0x4040_0000, 0),
		NewTexture(5, 128, 128, 0x4050_0000, 3),
		NewTexture(6, 1024, 16, 0x4060_0000, 2),
	}
	coords := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5, 0.999999, 1.000001,
		-1e-9, 1e-9, 1 - 1e-7, -(1 - 1e-7), 3.75, -3.75, 17.2, -17.2,
		1e9, -1e9, 1e30, -1e30,
		// Around the 2^23 bound of wrap's integer path.
		8388607.5, 8388607, -8388607.5, 8388608, 8388609, -8388608, 16777216,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	const grid = 37
	for i := 0; i <= grid; i++ {
		coords = append(coords, float32(i)/grid, float32(i)/grid-0.5, float32(i)*0.173-3)
	}
	// Negative coordinates just past a texel boundary, where f + 1 rounds
	// onto the boundary, and their positive mirrors.
	for _, n := range []float32{8, 64, 256} {
		for k := float32(1); k < 4; k++ {
			c := -k / n
			coords = append(coords, math.Nextafter32(c, -1), math.Nextafter32(-c, 1), math.Nextafter32(c, 0))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for range 200 {
		coords = append(coords, (rng.Float32()*2-1)*float32(math.Pow(2, float64(rng.Intn(40)-16))))
	}
	for _, tx := range textures {
		for l := -2; l <= tx.Levels+1; l++ {
			lv := tx.Level(l)
			if want := tx.Base + refLevelOffset(tx, tx.ClampLevel(l)); lv.Addr != want {
				t.Fatalf("texture %d level %d: Addr %#x, want %#x", tx.ID, l, lv.Addr, want)
			}
			for _, u := range coords {
				for _, v := range coords {
					if got, want := lv.TexelAddr(u, v), refTexelAddr(tx, u, v, l); got != want {
						t.Fatalf("texture %d (%dx%d, %d levels) level %d at (%g, %g): %#x, want %#x",
							tx.ID, tx.W, tx.H, tx.Levels, l, u, v, got, want)
					}
				}
			}
		}
	}
}

// TestLevelStepIsOneTexel checks the bilinear neighbour offsets the table
// holds against the division they replace, 1/float32 of the stored level's
// dimensions.
func TestLevelStepIsOneTexel(t *testing.T) {
	tx := NewTexture(0, 512, 8, 0, 0)
	for l := -1; l <= tx.Levels; l++ {
		lw, lh := tx.LevelDims(tx.ClampLevel(l))
		lv := tx.Level(l)
		if math.Float32bits(lv.DU) != math.Float32bits(1/float32(lw)) ||
			math.Float32bits(lv.DV) != math.Float32bits(1/float32(lh)) {
			t.Errorf("level %d: step (%g, %g), want (1/%d, 1/%d)", l, lv.DU, lv.DV, lw, lh)
		}
		if lv.W != lw || lv.H != lh {
			t.Errorf("level %d: dims %dx%d, want %dx%d", l, lv.W, lv.H, lw, lh)
		}
	}
}
