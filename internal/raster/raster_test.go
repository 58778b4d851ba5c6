package raster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// buildScene creates a one-draw scene whose material can be customized.
func buildScene(mat scene.Material) *scene.Scene {
	s := scene.NewScene()
	s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: mat})
	return s
}

// tri builds a screen-space primitive for draw 0.
func tri(ax, ay, bx, by, cx, cy, z float32) gpipe.Primitive {
	var p gpipe.Primitive
	p.V[0] = geom.Vertex{Pos: geom.Vec4{X: ax, Y: ay, Z: z, W: 1}, UV: geom.V2(0, 0), Color: geom.V3(1, 1, 1)}
	p.V[1] = geom.Vertex{Pos: geom.Vec4{X: bx, Y: by, Z: z, W: 1}, UV: geom.V2(1, 0), Color: geom.V3(1, 1, 1)}
	p.V[2] = geom.Vertex{Pos: geom.Vec4{X: cx, Y: cy, Z: z, W: 1}, UV: geom.V2(0, 1), Color: geom.V3(1, 1, 1)}
	return p
}

func refs(n int) []tiling.PrimRef {
	out := make([]tiling.PrimRef, n)
	for i := range out {
		out[i] = tiling.PrimRef{Prim: i, Addr: uint64(0x2000_0000 + i*32)}
	}
	return out
}

func TestRenderSingleTriangle(t *testing.T) {
	grid := tiling.NewGrid(64, 64)
	sc := buildScene(scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true})
	prims := []gpipe.Primitive{tri(0, 0, 32, 0, 0, 32, 0.5)}
	fb := NewFrameBuffer(64, 64)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, prims, refs(1), 0, fb)

	// Half of a 32x32 tile ≈ 512 pixels (the diagonal's fill rule may vary
	// by a row).
	if w.PixelsCovered < 450 || w.PixelsCovered > 560 {
		t.Errorf("covered pixels = %d, want ~512", w.PixelsCovered)
	}
	if w.FragmentsShaded != w.PixelsCovered {
		t.Errorf("all covered fragments should shade on a fresh tile: %d vs %d",
			w.FragmentsShaded, w.PixelsCovered)
	}
	if w.Instructions == 0 || len(w.Quads) == 0 {
		t.Error("work trace is empty")
	}
	// A pixel deep inside the triangle got a non-clear color.
	if fb.Pixels[4*fb.W+4] == ClearColor {
		t.Error("interior pixel not shaded")
	}
	// A pixel inside the tile but outside the triangle flushes clear.
	if fb.Pixels[30*fb.W+30] != ClearColor {
		t.Error("pixel outside the triangle should flush the clear color")
	}
	// A pixel in a tile that was never rendered stays zero.
	if fb.Pixels[40*fb.W+40] != 0 {
		t.Error("unrendered tile was modified")
	}
}

func TestEarlyZKillsOccludedFragments(t *testing.T) {
	grid := tiling.NewGrid(32, 32)
	sc := scene.NewScene()
	mat := scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true}
	sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: mat})
	sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: mat})

	near := tri(0, 0, 32, 0, 0, 32, 0.2)
	far := tri(0, 0, 32, 0, 0, 32, 0.8)
	far.Draw = 1
	fb := NewFrameBuffer(32, 32)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, []gpipe.Primitive{near, far}, refs(2), 0, fb)

	if w.FragmentsKilled == 0 {
		t.Fatal("Early-Z should kill the occluded second triangle")
	}
	if w.FragmentsKilled != w.PixelsCovered/2 {
		t.Errorf("killed = %d, covered = %d: second triangle should be fully occluded",
			w.FragmentsKilled, w.PixelsCovered)
	}
}

func TestLateZShadesThenDiscards(t *testing.T) {
	grid := tiling.NewGrid(32, 32)
	sc := scene.NewScene()
	opaque := scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true}
	lateZ := scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true, ForceLateZ: true}
	sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: opaque})
	sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: lateZ})

	near := tri(0, 0, 32, 0, 0, 32, 0.2)
	behind := tri(0, 0, 32, 0, 0, 32, 0.9)
	behind.Draw = 1
	fb := NewFrameBuffer(32, 32)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, []gpipe.Primitive{near, behind}, refs(2), 0, fb)

	// Late-Z fragments are shaded (cost paid) even though discarded.
	if w.FragmentsKilled != 0 {
		t.Errorf("Late-Z fragments should not count as early-killed, got %d", w.FragmentsKilled)
	}
	if w.FragmentsShaded != w.PixelsCovered {
		t.Errorf("Late-Z should shade all covered fragments: %d vs %d", w.FragmentsShaded, w.PixelsCovered)
	}
	// But the image must show the near triangle.
	hash1 := fb.Hash()
	fb2 := NewFrameBuffer(32, 32)
	r2 := NewRenderer(grid)
	r2.RenderTile(sc, []gpipe.Primitive{near}, refs(1), 0, fb2)
	if fb2.Hash() != hash1 {
		t.Error("occluded Late-Z triangle changed the image")
	}
}

func TestSharedEdgeNoDoubleCoverage(t *testing.T) {
	// Two triangles forming a quad: every interior pixel covered exactly
	// once (top-left fill rule).
	grid := tiling.NewGrid(32, 32)
	sc := buildScene(scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true})
	a := tri(0, 0, 32, 0, 0, 32, 0.5)
	b := tri(32, 0, 32, 32, 0, 32, 0.5)
	fb := NewFrameBuffer(32, 32)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, []gpipe.Primitive{a, b}, refs(2), 0, fb)
	if w.PixelsCovered != 32*32 {
		t.Errorf("quad coverage = %d, want 1024 (no double-coverage on shared edge)", w.PixelsCovered)
	}
}

func TestTexturedQuadGeneratesTextureTraffic(t *testing.T) {
	grid := tiling.NewGrid(32, 32)
	alloc := scene.NewTextureAllocator()
	tex := alloc.Alloc(256, 256)
	sc := buildScene(scene.Material{
		Program:  shader.Textured,
		Textures: []*scene.Texture{tex},
		Blend:    scene.BlendOpaque, DepthWrite: true,
	})
	fb := NewFrameBuffer(32, 32)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, []gpipe.Primitive{tri(0, 0, 32, 0, 0, 32, 0.5)}, refs(1), 0, fb)
	if len(w.TexLines) == 0 {
		t.Fatal("textured draw produced no texture accesses")
	}
	for _, line := range w.TexLines {
		if uint64(line) < tex.Base || uint64(line) >= tex.Base+tex.SizeBytes() {
			t.Fatalf("texture line %#x outside texture range", line)
		}
		if line%64 != 0 {
			t.Fatalf("texture access %#x not line-aligned", line)
		}
	}
	// The quads' line counts add up to the stream, which they split.
	var total int
	for _, q := range w.Quads {
		total += int(q.TexCount)
	}
	if total != len(w.TexLines) {
		t.Errorf("quad tex counts (%d) != flat array (%d)", total, len(w.TexLines))
	}
}

func TestMipLevelSelection(t *testing.T) {
	// Minified texture (large UV derivative) picks a coarser level.
	if l := mipLevel(geom.V2(0.25, 0), geom.V2(0, 0.25), 256, 256); l < 5 || l > 7 {
		t.Errorf("minified mip level = %d, want ~6", l)
	}
	// Magnified: level 0.
	if l := mipLevel(geom.V2(0.001, 0), geom.V2(0, 0.001), 256, 256); l != 0 {
		t.Errorf("magnified mip level = %d, want 0", l)
	}
}

// TestDerivativeRetry renders a one-quad triangle whose perspective
// denominator vanishes exactly at a neighbour centre of the quad's first
// fragment, so that fragment has no UV derivatives: it samples level 0, and
// the quad's second fragment takes the derivatives afresh and samples the
// coarser level they select.
func TestDerivativeRetry(t *testing.T) {
	grid := tiling.NewGrid(32, 32)
	tex := scene.NewTextureAllocator().Alloc(64, 64)
	sc := buildScene(scene.Material{
		Program:  shader.Textured,
		Textures: []*scene.Texture{tex},
		Blend:    scene.BlendOpaque, DepthWrite: true,
	})
	white := geom.V3(1, 1, 1)
	p := gpipe.Primitive{V: [3]geom.Vertex{
		{Pos: geom.Vec4{X: 3.25, Y: 3, Z: 0.5, W: 0.5}, UV: geom.V2(0.5, 0.875), Color: white},
		{Pos: geom.Vec4{X: 0.75, Y: 1.75, Z: 0.5, W: 1}, UV: geom.V2(0.125, 0.125), Color: white},
		{Pos: geom.Vec4{X: 4, Y: 2.5, Z: 0.5, W: 0.25}, UV: geom.V2(0.625, 1), Color: white},
	}}
	w := NewRenderer(grid).RenderTile(sc, []gpipe.Primitive{p}, refs(1), 0, NewFrameBuffer(32, 32))
	if len(w.Quads) != 1 || w.Quads[0].Fragments != 2 || len(w.TexLines) != 2 {
		t.Fatalf("want one quad of two fragments on two lines, got quads %+v lines %#x", w.Quads, w.TexLines)
	}
	level0End := tex.Base + uint64(tex.W*tex.H*scene.TexelBytes)
	if uint64(w.TexLines[0]) >= level0End {
		t.Errorf("first fragment (no derivatives) read %#x, want level 0 [%#x, %#x)",
			w.TexLines[0], tex.Base, level0End)
	}
	if uint64(w.TexLines[1]) < level0End {
		t.Errorf("second fragment read %#x in level 0, want the coarser level its derivatives select",
			w.TexLines[1])
	}
}

func TestRenderDeterministic(t *testing.T) {
	grid := tiling.NewGrid(64, 64)
	alloc := scene.NewTextureAllocator()
	tex := alloc.Alloc(128, 128)
	sc := buildScene(scene.Material{
		Program:  shader.Multitexture,
		Textures: []*scene.Texture{tex},
		Blend:    scene.BlendAlpha,
	})
	prims := []gpipe.Primitive{
		tri(0, 0, 60, 4, 8, 60, 0.4),
		tri(5, 5, 50, 20, 20, 55, 0.3),
	}
	run := func() uint64 {
		fb := NewFrameBuffer(64, 64)
		r := NewRenderer(grid)
		for id := 0; id < grid.NumTiles(); id++ {
			r.RenderTile(sc, prims, refs(2), id, fb)
		}
		return fb.Hash()
	}
	if run() != run() {
		t.Error("rendering must be deterministic")
	}
}

func TestBlendModes(t *testing.T) {
	d := packColor(geom.V3(0.2, 0.2, 0.2))
	src := geom.V3(1, 1, 1)
	if blendPixel(scene.BlendOpaque, d, src) != packColor(src) {
		t.Error("opaque blend should replace")
	}
	add := blendPixel(scene.BlendAdditive, d, src)
	if add != packColor(geom.V3(1, 1, 1)) {
		t.Error("additive blend should saturate at white")
	}
	al := unpackColor(blendPixel(scene.BlendAlpha, packColor(geom.V3(0, 0, 0)), src))
	if al.X < 0.7 || al.X > 0.8 {
		t.Errorf("alpha blend = %v, want ~0.75", al.X)
	}
}

func TestColorPackRoundTrip(t *testing.T) {
	c := geom.V3(0.5, 0.25, 1)
	got := unpackColor(packColor(c))
	if geom.Abs(got.X-0.5) > 0.01 || geom.Abs(got.Y-0.25) > 0.01 || geom.Abs(got.Z-1) > 0.01 {
		t.Errorf("round trip = %v", got)
	}
}

func TestFlushLinesFullTile(t *testing.T) {
	grid := tiling.NewGrid(64, 64)
	fb := NewFrameBuffer(64, 64)
	lines := fb.AppendTileFlushLines(nil, grid, 0)
	// 32 rows × 128 bytes per row = 64 lines.
	if len(lines) != 64 {
		t.Errorf("full tile flush = %d lines, want 64", len(lines))
	}
	seen := map[uint32]bool{}
	for _, l := range lines {
		if l%64 != 0 {
			t.Fatalf("flush address %#x not line-aligned", l)
		}
		if seen[l] {
			t.Fatalf("duplicate flush line %#x", l)
		}
		seen[l] = true
	}
}

func TestEmptyTileStillFlushes(t *testing.T) {
	grid := tiling.NewGrid(64, 64)
	sc := buildScene(scene.Material{Program: shader.Flat})
	fb := NewFrameBuffer(64, 64)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, nil, nil, 3, fb)
	if len(w.FlushLines) == 0 {
		t.Error("empty tile must still flush its Color Buffer")
	}
	if w.Instructions != 0 || len(w.Quads) != 0 {
		t.Error("empty tile should have no shading work")
	}
	if fb.Pixels[40*fb.W+40] != ClearColor {
		t.Error("empty tile should flush the clear color")
	}
}

func TestFrameBufferHashSensitive(t *testing.T) {
	a := NewFrameBuffer(8, 8)
	b := NewFrameBuffer(8, 8)
	if a.Hash() != b.Hash() {
		t.Error("identical buffers must hash equal")
	}
	b.Pixels[13] ^= 1
	if a.Hash() == b.Hash() {
		t.Error("hash must detect a single pixel change")
	}
	// The digest is FNV-1a over the little-endian pixel bytes.
	for i := range b.Pixels {
		b.Pixels[i] = uint32(i) * 0x9e3779b9
	}
	var bytes []byte
	for _, p := range b.Pixels {
		bytes = binary.LittleEndian.AppendUint32(bytes, p)
	}
	ref := fnv.New64a()
	ref.Write(bytes)
	if b.Hash() != ref.Sum64() {
		t.Errorf("Hash = %#x, FNV-1a of the pixel bytes = %#x", b.Hash(), ref.Sum64())
	}
}

func TestRendererZBufferIsolatedPerTile(t *testing.T) {
	// Rendering tile A then tile B must not leak depth between tiles.
	grid := tiling.NewGrid(64, 32)
	sc := buildScene(scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true})
	near := tri(0, 0, 64, 0, 0, 32, 0.1) // spans both tiles
	fb := NewFrameBuffer(64, 32)
	r := NewRenderer(grid)
	r.RenderTile(sc, []gpipe.Primitive{near}, refs(1), 0, fb)
	w := r.RenderTile(sc, []gpipe.Primitive{near}, refs(1), 1, fb)
	if w.FragmentsShaded == 0 {
		t.Error("second tile should shade fragments (fresh Z-buffer per tile)")
	}
}

func TestSamplesAccounting(t *testing.T) {
	grid := tiling.NewGrid(32, 32)
	alloc := scene.NewTextureAllocator()
	tex := alloc.Alloc(128, 128)
	sc := buildScene(scene.Material{
		Program:  shader.Multitexture, // 2 samples per fragment
		Textures: []*scene.Texture{tex},
		Blend:    scene.BlendOpaque, DepthWrite: true,
	})
	fb := NewFrameBuffer(32, 32)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, []gpipe.Primitive{tri(0, 0, 32, 0, 0, 32, 0.5)}, refs(1), 0, fb)
	var samples, frags int
	for _, q := range w.Quads {
		samples += int(q.Samples)
		frags += int(q.Fragments)
		// Coalescing means distinct lines never exceed issued samples...
		// except bilinear/trilinear footprints (disabled here).
		if int(q.TexCount) > int(q.Samples) {
			t.Fatalf("quad touches %d lines with only %d samples (nearest)", q.TexCount, q.Samples)
		}
	}
	if samples != frags*2 {
		t.Errorf("samples = %d, want fragments*2 = %d", samples, frags*2)
	}
}

func TestFlatDrawsHaveNoSamples(t *testing.T) {
	grid := tiling.NewGrid(32, 32)
	sc := buildScene(scene.Material{Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true})
	fb := NewFrameBuffer(32, 32)
	r := NewRenderer(grid)
	w := r.RenderTile(sc, []gpipe.Primitive{tri(0, 0, 32, 0, 0, 32, 0.5)}, refs(1), 0, fb)
	for _, q := range w.Quads {
		if q.Samples != 0 || q.TexCount != 0 {
			t.Fatal("flat shading must not sample textures")
		}
	}
	if len(w.TexLines) != 0 {
		t.Error("flat tile has texture lines")
	}
}

// TestWorkRecordLayout pins TileWork's compact layout: an 8-byte quad with
// no stored line offset, and 4-byte address entries in all three streams.
// A frame's work record is held per tile by the render farm and decoded
// per replayed frame, so a wider field grows every one of them.
func TestWorkRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(QuadMeta{}); got != 8 {
		t.Errorf("QuadMeta is %d bytes, want 8", got)
	}
	var w TileWork
	for name, size := range map[string]uintptr{
		"TexLines":   unsafe.Sizeof(w.TexLines[:1][0]),
		"PBReads":    unsafe.Sizeof(w.PBReads[:1][0]),
		"FlushLines": unsafe.Sizeof(w.FlushLines[:1][0]),
	} {
		if size != 4 {
			t.Errorf("a %s entry is %d bytes, want 4", name, size)
		}
	}
}
