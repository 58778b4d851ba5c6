package tiling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
)

// buildSigInputs deterministically constructs a signature workload — n
// primitives spread over a handful of draw calls with textured materials,
// plus the tile's PrimRef list — from a PRNG seed. Calling it twice with the
// same (seed, n) yields byte-identical inputs, which is what the
// no-false-miss half of the fuzz target leans on.
func buildSigInputs(seed int64, n int) ([]PrimRef, []gpipe.Primitive, *scene.Scene) {
	rng := rand.New(rand.NewSource(seed))
	sc := scene.NewScene()
	draws := 1 + rng.Intn(4)
	for d := 0; d < draws; d++ {
		mat := scene.Material{
			Blend:      scene.BlendMode(rng.Intn(3)),
			DepthWrite: rng.Intn(2) == 0,
			ForceLateZ: rng.Intn(4) == 0,
		}
		mat.Program.ALUOps = 1 + rng.Intn(64)
		mat.Program.TexSamples = rng.Intn(3)
		mat.Program.Interpolants = 1 + rng.Intn(8)
		for t := 0; t < mat.Program.TexSamples; t++ {
			w := 1 << (4 + rng.Intn(4))
			mat.Textures = append(mat.Textures,
				scene.NewTexture(rng.Intn(512), w, w, uint64(rng.Uint32()), 1+rng.Intn(5)))
		}
		sc.DrawCalls = append(sc.DrawCalls, scene.DrawCall{Material: mat})
	}
	prims := make([]gpipe.Primitive, n)
	refs := make([]PrimRef, n)
	for i := range prims {
		p := &prims[i]
		p.Draw = rng.Intn(draws)
		p.Seq = i
		for v := range p.V {
			p.V[v] = geom.Vertex{
				Pos:   geom.Vec4{X: rng.Float32() * 320, Y: rng.Float32() * 192, Z: rng.Float32(), W: 1 + rng.Float32()},
				UV:    geom.V2(rng.Float32(), rng.Float32()),
				Color: geom.Vec3{X: rng.Float32(), Y: rng.Float32(), Z: rng.Float32()},
			}
		}
		refs[i] = PrimRef{Prim: i, Addr: 0x4000_0000 + uint64(i)*PBEntryBytes}
	}
	return refs, prims, sc
}

// TestTileSignatureStable: the signature is a pure function of its inputs —
// repeated computation and independent regeneration of identical inputs must
// agree, including across distinct Scene/Primitive allocations. This is the
// no-false-miss contract Rendering Elimination's hit ratio depends on.
func TestTileSignatureStable(t *testing.T) {
	refs, prims, sc := buildSigInputs(42, 12)
	refs2, prims2, sc2 := buildSigInputs(42, 12)
	a := TileSignature(3, refs, prims, sc, 7)
	if b := TileSignature(3, refs, prims, sc, 7); a != b {
		t.Fatalf("same inputs, different signatures: %#x vs %#x", a, b)
	}
	if b := TileSignature(3, refs2, prims2, sc2, 7); a != b {
		t.Fatalf("regenerated inputs, different signatures: %#x vs %#x", a, b)
	}
}

// TestTileSignatureIgnoresPBPacking: PrimRef.Addr and PrimRef.Prim are
// frame-global Parameter Buffer packing artifacts — an edit elsewhere on
// screen shifts both for this tile without touching its pixels, so the
// signature must not see them (DESIGN §14 key exclusions).
func TestTileSignatureIgnoresPBPacking(t *testing.T) {
	refs, prims, sc := buildSigInputs(7, 8)
	want := TileSignature(0, refs, prims, sc, 0)

	shifted := make([]PrimRef, len(refs))
	for i, r := range refs {
		shifted[i] = PrimRef{Prim: r.Prim, Addr: r.Addr + 0x9999}
	}
	if got := TileSignature(0, shifted, prims, sc, 0); got != want {
		t.Errorf("Parameter Buffer address shift changed signature: %#x -> %#x", want, got)
	}

	// Re-index: copy each primitive to a new slot and retarget the refs.
	// Same per-tile content, different global indices — same signature.
	moved := make([]gpipe.Primitive, len(prims)*2)
	reidx := make([]PrimRef, len(refs))
	for i, r := range refs {
		moved[len(prims)+i] = prims[r.Prim]
		reidx[i] = PrimRef{Prim: len(prims) + i, Addr: r.Addr}
	}
	if got := TileSignature(0, reidx, moved, sc, 0); got != want {
		t.Errorf("primitive re-indexing changed signature: %#x -> %#x", want, got)
	}
}

// TestTileSignatureDistinguishes: every input the signature claims to cover
// must actually perturb it — a stale hash here would silently skip a tile
// whose pixels changed.
func TestTileSignatureDistinguishes(t *testing.T) {
	base := func() ([]PrimRef, []gpipe.Primitive, *scene.Scene) { return buildSigInputs(99, 6) }
	refs, prims, sc := base()
	want := TileSignature(5, refs, prims, sc, 1)

	mutations := []struct {
		name string
		sig  func() uint64
	}{
		{"tile id", func() uint64 { return TileSignature(6, refs, prims, sc, 1) }},
		{"salt", func() uint64 { return TileSignature(5, refs, prims, sc, 2) }},
		{"vertex position", func() uint64 {
			_, p, s := base()
			p[2].V[1].Pos.X += 0.25
			return TileSignature(5, refs, p, s, 1)
		}},
		{"vertex UV", func() uint64 {
			_, p, s := base()
			p[0].V[0].UV.Y += 0.5
			return TileSignature(5, refs, p, s, 1)
		}},
		{"vertex color", func() uint64 {
			_, p, s := base()
			p[4].V[2].Color.Z += 0.125
			return TileSignature(5, refs, p, s, 1)
		}},
		{"shader ALU cost", func() uint64 {
			_, p, s := base()
			s.DrawCalls[p[0].Draw].Material.Program.ALUOps++
			return TileSignature(5, refs, p, s, 1)
		}},
		{"blend mode", func() uint64 {
			_, p, s := base()
			s.DrawCalls[p[0].Draw].Material.Blend++
			return TileSignature(5, refs, p, s, 1)
		}},
		{"depth write", func() uint64 {
			_, p, s := base()
			m := &s.DrawCalls[p[0].Draw].Material
			m.DepthWrite = !m.DepthWrite
			return TileSignature(5, refs, p, s, 1)
		}},
		{"dropped primitive", func() uint64 { return TileSignature(5, refs[:len(refs)-1], prims, sc, 1) }},
		{"reordered list", func() uint64 {
			r := append([]PrimRef(nil), refs...)
			r[0], r[1] = r[1], r[0]
			return TileSignature(5, r, prims, sc, 1)
		}},
	}
	// The reorder mutation only differs when the two swapped primitives do.
	if got := TileSignature(5, refs, prims, sc, 1); got != want {
		t.Fatalf("baseline not reproducible")
	}
	for _, m := range mutations {
		if got := m.sig(); got == want {
			t.Errorf("mutation %q did not change the signature (%#x)", m.name, want)
		}
	}

	// 0 and -0 compare equal as floats but render identically only by
	// accident of the current shaders; the signature conservatively
	// distinguishes their bit patterns (a spurious miss is safe, a false
	// hit is not).
	_, pz, sz := base()
	pz[0].V[0].Pos.Z = 0
	zero := TileSignature(5, refs, pz, sz, 1)
	pz[0].V[0].Pos.Z = math.Float32frombits(0x8000_0000) // -0
	if negZero := TileSignature(5, refs, pz, sz, 1); negZero == zero {
		t.Errorf("0 and -0 hash identically")
	}
}

// TestAppendTileSignaturesReuse: the frame loop reuses the destination slice
// (sig = AppendTileSignatures(sig[:0], ...)), so once the slice has reached
// the grid's tile count, signing a frame must not allocate — the §11
// steady-state zero-alloc contract for the Rendering Elimination path.
func TestAppendTileSignaturesReuse(t *testing.T) {
	_, prims, sc := buildSigInputs(3, 40)
	grid := NewGrid(320, 192)
	lists := new(Binner).Bin(grid, prims)

	fresh := AppendTileSignatures(nil, lists, prims, sc, 9)
	if len(fresh) != grid.NumTiles() {
		t.Fatalf("%d signatures for %d tiles", len(fresh), grid.NumTiles())
	}
	reused := AppendTileSignatures(fresh[:0], lists, prims, sc, 9)
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Fatalf("tile %d: reused-slice signature differs", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		reused = AppendTileSignatures(reused[:0], lists, prims, sc, 9)
	}); allocs != 0 {
		t.Errorf("steady-state AppendTileSignatures allocates %.1f times per frame", allocs)
	}
}

// FuzzTileSignature fuzzes both halves of the Rendering Elimination safety
// argument. No false misses: independently regenerating identical inputs
// must reproduce the signature exactly. No false hits: a single mutation to
// any covered input (geometry, shader cost, state, textures, list shape,
// tile id, salt) must change it, while mutations to the two excluded
// Parameter Buffer packing fields (PrimRef.Addr, PrimRef.Prim re-indexing)
// must not.
func FuzzTileSignature(f *testing.F) {
	f.Add(int64(1), uint8(6), uint64(0), uint8(3), uint8(0), uint32(1))
	f.Add(int64(-42), uint8(1), uint64(2), uint8(0), uint8(4), uint32(7))
	f.Add(int64(7777), uint8(33), uint64(99), uint8(200), uint8(9), uint32(0))
	f.Add(int64(0), uint8(0), uint64(1), uint8(17), uint8(12), uint32(500))
	f.Fuzz(func(t *testing.T, seed int64, n8 uint8, salt uint64, tile8, mutSel uint8, delta uint32) {
		n := 1 + int(n8%24)
		tile := int(tile8)
		refs, prims, sc := buildSigInputs(seed, n)
		want := TileSignature(tile, refs, prims, sc, salt)

		// No false misses: regeneration is exact.
		refs2, prims2, sc2 := buildSigInputs(seed, n)
		if got := TileSignature(tile, refs2, prims2, sc2, salt); got != want {
			t.Fatalf("regenerated identical inputs: signature %#x != %#x", got, want)
		}

		// Excluded inputs: Parameter Buffer packing must be invisible.
		for i := range refs2 {
			refs2[i].Addr += uint64(delta) + 1
		}
		if got := TileSignature(tile, refs2, prims2, sc2, salt); got != want {
			t.Fatalf("PB address shift changed signature: %#x != %#x", got, want)
		}

		// No false hits: one covered-input mutation flips the signature.
		mrefs, mprims, msc := buildSigInputs(seed, n)
		d := float32(delta%1024+1) / 256
		pi := int(delta) % n
		name := ""
		switch mutSel % 12 {
		case 0:
			name, mprims[pi].V[0].Pos.X = "pos.x", mprims[pi].V[0].Pos.X+d
		case 1:
			name, mprims[pi].V[1].Pos.W = "pos.w", mprims[pi].V[1].Pos.W+d
		case 2:
			name, mprims[pi].V[2].UV.X = "uv.x", mprims[pi].V[2].UV.X+d
		case 3:
			name, mprims[pi].V[0].Color.Y = "color.y", mprims[pi].V[0].Color.Y+d
		case 4:
			name = "aluops"
			msc.DrawCalls[mprims[pi].Draw].Material.Program.ALUOps += int(delta%7) + 1
		case 5:
			name = "texsamples"
			msc.DrawCalls[mprims[pi].Draw].Material.Program.TexSamples += int(delta%3) + 1
		case 6:
			name = "blend"
			msc.DrawCalls[mprims[pi].Draw].Material.Blend += scene.BlendMode(delta%2) + 1
		case 7:
			name = "depthwrite"
			m := &msc.DrawCalls[mprims[pi].Draw].Material
			m.DepthWrite = !m.DepthWrite
		case 8:
			name = "forcelatez"
			m := &msc.DrawCalls[mprims[pi].Draw].Material
			m.ForceLateZ = !m.ForceLateZ
		case 9:
			name = "texture"
			m := &msc.DrawCalls[mprims[pi].Draw].Material
			m.Textures = append(m.Textures, scene.NewTexture(900+int(delta%100), 32, 32, 0x100, 1))
			// Only observable if some binned primitive uses this draw call —
			// it does: primitive pi references it by construction.
		case 10:
			name, mrefs = "dropped prim", mrefs[:n-1]
			if n == 1 {
				// An empty list still differs from a non-empty one.
				name = "emptied list"
			}
		case 11:
			name = "salt"
			salt2 := salt + uint64(delta) + 1
			if got := TileSignature(tile, mrefs, mprims, msc, salt2); got == want {
				t.Fatalf("salt mutation did not change signature (%#x)", want)
			}
			return
		}
		if got := TileSignature(tile, mrefs, mprims, msc, salt); got == want {
			t.Fatalf("mutation %q did not change signature (%#x)", name, want)
		}
	})
}
