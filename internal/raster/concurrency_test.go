package raster

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// concurrencyScene builds a multi-tile frame with overlapping textured and
// flat triangles so depth testing, blending and texture sampling are all in
// play on every tile.
func concurrencyScene(grid tiling.Grid) (*scene.Scene, []gpipe.Primitive, *tiling.TileLists) {
	s := scene.NewScene()
	alloc := scene.NewTextureAllocator()
	tex := alloc.Alloc(256, 256)
	s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: scene.Material{
		Program: shader.Flat, Blend: scene.BlendOpaque, DepthWrite: true}})
	s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: scene.Material{
		Program: shader.Textured, Textures: []*scene.Texture{tex}, Blend: scene.BlendAlpha}})

	fw, fh := float32(grid.ScreenW), float32(grid.ScreenH)
	var prims []gpipe.Primitive
	add := func(draw int, p gpipe.Primitive) {
		p.Draw = draw
		p.Seq = len(prims)
		prims = append(prims, p)
	}
	add(0, tri(0, 0, fw, 0, 0, fh, 0.8))
	add(0, tri(fw, fh, 0, fh, fw, 0, 0.8))
	for i := 0; i < 6; i++ {
		o := float32(i) * fw / 7
		add(1, tri(o, 0, o+fw/3, fh/2, o, fh, 0.5-float32(i)*0.05))
	}
	return s, prims, new(tiling.Binner).Bin(grid, prims)
}

// TestConcurrentRenderersMatchSerial checks the concurrency contract stated
// on Renderer: private Renderer instances rendering disjoint tile shards of
// one frame concurrently must produce exactly the FrameBuffer and TileWork
// traces of a single serial renderer. This is the property the parallel
// simulation mode (internal/sim Config.Workers) is built on; run it under
// -race to also certify the sharing pattern (read-only scene/prims, disjoint
// FrameBuffer writes).
func TestConcurrentRenderersMatchSerial(t *testing.T) {
	grid := tiling.NewGrid(256, 128)
	sc, prims, lists := concurrencyScene(grid)
	n := grid.NumTiles()

	serialFB := NewFrameBuffer(256, 128)
	serial := make([]TileWork, n)
	r := NewRenderer(grid)
	for tile := 0; tile < n; tile++ {
		serial[tile] = r.RenderTile(sc, prims, lists.Lists[tile], tile, serialFB)
	}

	const workers = 4
	parFB := NewFrameBuffer(256, 128)
	par := make([]TileWork, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := NewRenderer(grid)
			for tile := w; tile < n; tile += workers {
				par[tile] = pr.RenderTile(sc, prims, lists.Lists[tile], tile, parFB)
			}
		}(w)
	}
	wg.Wait()

	if serialFB.Hash() != parFB.Hash() {
		t.Fatalf("frame hash diverges: serial %#x concurrent %#x", serialFB.Hash(), parFB.Hash())
	}
	for tile := 0; tile < n; tile++ {
		if !reflect.DeepEqual(serial[tile], par[tile]) {
			t.Fatalf("tile %d work trace diverges between serial and concurrent rendering", tile)
		}
	}
}
