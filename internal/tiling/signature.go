package tiling

import (
	"math"

	"repro/internal/gpipe"
	"repro/internal/scene"
)

// Rendering Elimination input signatures (DESIGN §14).
//
// A tile's signature is a 64-bit FNV-1a hash over every input that can
// change the tile's rendered pixels: the tile id, a caller-supplied salt
// (the configuration inputs that alter rasterization, e.g. the texture
// filtering mode), and — in Parameter Buffer list order — the full geometry
// and state of every primitive binned to the tile: the three screen-space
// vertices (position, UV, color), the fragment program's cost profile, the
// blend/depth state, and the identity and layout of every bound texture.
//
// The signature deliberately EXCLUDES PrimRef.Addr and PrimRef.Prim: the
// Parameter Buffer packs entries sequentially across the whole frame, so an
// edit anywhere on screen shifts the addresses (and primitive indices) of
// every later entry without changing this tile's pixels, and a skipped tile
// replays no Parameter Buffer reads — so neither value can affect a skipped
// tile's output or timing. Host-parallelism and cache/DRAM sizing knobs are
// likewise excluded: they change timing, never pixels.
//
// FNV-1a is used rather than hash/maphash because a signature must be a pure
// function of the tile's inputs, identical in every process and run;
// maphash is seeded per process by design.
const (
	sigOffset uint64 = 14695981039346656037
	sigPrime  uint64 = 1099511628211
)

// sigU64 folds the 8 bytes of v (little-endian) into the running hash.
func sigU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= sigPrime
		v >>= 8
	}
	return h
}

// sigU32 folds the 4 bytes of v (little-endian) into the running hash.
func sigU32(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h ^= uint64(v & 0xff)
		h *= sigPrime
		v >>= 8
	}
	return h
}

// sigF32 folds a float32 by bit pattern (exact: no rounding, and the
// distinct bit patterns of 0 and -0 are deliberately distinguished — a
// conservative miss is correct, a false hit is not).
func sigF32(h uint64, f float32) uint64 { return sigU32(h, math.Float32bits(f)) }

// sigBool folds a bool as one byte.
func sigBool(h uint64, b bool) uint64 {
	var v uint32
	if b {
		v = 1
	}
	return sigU32(h, v)
}

// TileSignature hashes every rendering input of one tile: the tile id, the
// salt, and each binned primitive's vertices and material state in list
// order. Identical inputs yield an identical signature across processes.
//
//libra:hotpath
func TileSignature(tileID int, refs []PrimRef, prims []gpipe.Primitive, sc *scene.Scene, salt uint64) uint64 {
	h := sigU64(sigOffset, salt)
	h = sigU64(h, uint64(tileID))
	for _, ref := range refs {
		p := &prims[ref.Prim]
		for vi := range p.V {
			v := &p.V[vi]
			h = sigF32(h, v.Pos.X)
			h = sigF32(h, v.Pos.Y)
			h = sigF32(h, v.Pos.Z)
			h = sigF32(h, v.Pos.W)
			h = sigF32(h, v.UV.X)
			h = sigF32(h, v.UV.Y)
			h = sigF32(h, v.Color.X)
			h = sigF32(h, v.Color.Y)
			h = sigF32(h, v.Color.Z)
		}
		mat := &sc.DrawCalls[p.Draw].Material
		h = sigU32(h, uint32(mat.Program.ALUOps))
		h = sigU32(h, uint32(mat.Program.TexSamples))
		h = sigU32(h, uint32(mat.Program.Interpolants))
		h = sigU32(h, uint32(mat.Blend))
		h = sigBool(h, mat.DepthWrite)
		h = sigBool(h, mat.ForceLateZ)
		h = sigU32(h, uint32(len(mat.Textures)))
		for _, tex := range mat.Textures {
			h = sigU32(h, uint32(tex.ID))
			h = sigU32(h, uint32(tex.W))
			h = sigU32(h, uint32(tex.H))
			h = sigU32(h, uint32(tex.Levels))
			h = sigU64(h, tex.Base)
		}
	}
	return h
}

// AppendTileSignatures computes the signature of every tile of the frame and
// appends them to dst (one uint64 per tile, indexed by tile id), returning
// the extended slice. Callers reuse dst across frames (`sig =
// AppendTileSignatures(sig[:0], ...)`), so steady-state signing allocates
// nothing once dst reaches the grid's tile count.
//
//libra:hotpath
func AppendTileSignatures(dst []uint64, lists *TileLists, prims []gpipe.Primitive, sc *scene.Scene, salt uint64) []uint64 {
	for id, refs := range lists.Lists {
		dst = append(dst, TileSignature(id, refs, prims, sc, salt))
	}
	return dst
}
