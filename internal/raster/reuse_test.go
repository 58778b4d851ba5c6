package raster

import (
	"reflect"
	"testing"

	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// reuseScene builds a small multi-draw scene exercising texturing and
// blending, so the reuse paths cover the quad/texline/flush streams.
func reuseScene() *scene.Scene {
	s := scene.NewScene()
	tex := scene.NewTexture(1, 64, 64, 0x4000_0000, 4)
	s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: scene.Material{
		Program: shader.Textured, Textures: []*scene.Texture{tex},
		Blend: scene.BlendOpaque, DepthWrite: true,
	}})
	s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: scene.Material{
		Program: shader.Flat, Blend: scene.BlendAlpha,
	}})
	return s
}

func reusePrims() []gpipe.Primitive {
	ps := []gpipe.Primitive{
		tri(0, 0, 60, 0, 0, 60, 0.5),
		tri(4, 4, 60, 4, 4, 60, 0.3),
		tri(0, 0, 32, 0, 0, 32, 0.8),
	}
	ps[1].Draw = 1
	for i := range ps {
		ps[i].Seq = i
	}
	return ps
}

// TestRenderTileIntoMatchesRenderTile proves the reusable entry point is
// observationally identical to the allocating one: same TileWork, same
// framebuffer bytes.
func TestRenderTileIntoMatchesRenderTile(t *testing.T) {
	grid := tiling.NewGrid(64, 64)
	sc, prims, rf := reuseScene(), reusePrims(), refs(3)

	fbA := NewFrameBuffer(64, 64)
	fresh := NewRenderer(grid).RenderTile(sc, prims, rf, 0, fbA)

	fbB := NewFrameBuffer(64, 64)
	r := NewRenderer(grid)
	var w TileWork
	// Dirty the scratch with another tile first, then reuse it for tile 0.
	r.RenderTileInto(&w, sc, prims, rf, 1, fbB)
	r.RenderTileInto(&w, sc, prims, rf, 0, fbB)

	if got := w.Clone(); !reflect.DeepEqual(got, fresh) {
		t.Errorf("reused TileWork differs from fresh render:\n got %+v\nwant %+v", got, fresh)
	}
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if a, b := fbA.Pixels[y*64+x], fbB.Pixels[y*64+x]; a != b {
				t.Fatalf("framebuffer differs at (%d,%d): %08x vs %08x", x, y, a, b)
			}
		}
	}
}

// TestRenderTileIntoZeroAllocs pins the warm-path allocation count at zero:
// once the TileWork reaches the tile's watermark, re-rendering must not touch
// the heap.
func TestRenderTileIntoZeroAllocs(t *testing.T) {
	grid := tiling.NewGrid(64, 64)
	sc, prims, rf := reuseScene(), reusePrims(), refs(3)
	fb := NewFrameBuffer(64, 64)
	r := NewRenderer(grid)
	var w TileWork
	r.RenderTileInto(&w, sc, prims, rf, 0, fb) // grow to watermark

	allocs := testing.AllocsPerRun(50, func() {
		r.RenderTileInto(&w, sc, prims, rf, 0, fb)
	})
	if allocs != 0 {
		t.Errorf("warm RenderTileInto allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzRendererReuse feeds randomized triangles through a reused renderer and
// TileWork and cross-checks against a fresh render of the same input.
func FuzzRendererReuse(f *testing.F) {
	f.Add(float32(0), float32(0), float32(60), float32(8), float32(8), float32(60), float32(0.5), uint8(1))
	f.Add(float32(-10), float32(5), float32(70), float32(0), float32(30), float32(90), float32(0.1), uint8(0))
	f.Add(float32(31), float32(31), float32(33), float32(31), float32(31), float32(33), float32(0.9), uint8(2))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, z float32, blend uint8) {
		if z != z || z < 0 || z > 1 {
			t.Skip()
		}
		ok := func(v float32) bool { return v == v && v > -1e6 && v < 1e6 }
		if !ok(ax) || !ok(ay) || !ok(bx) || !ok(by) || !ok(cx) || !ok(cy) {
			t.Skip()
		}
		grid := tiling.NewGrid(64, 64)
		s := scene.NewScene()
		s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: scene.Material{
			Program: shader.Flat, Blend: scene.BlendMode(blend % 3), DepthWrite: blend%2 == 0,
		}})
		prims := []gpipe.Primitive{tri(ax, ay, bx, by, cx, cy, z)}
		rf := refs(1)

		fresh := NewRenderer(grid).RenderTile(s, prims, rf, 0, NewFrameBuffer(64, 64))

		r := NewRenderer(grid)
		var w TileWork
		r.RenderTileInto(&w, s, prims, rf, 1, NewFrameBuffer(64, 64)) // dirty
		r.RenderTileInto(&w, s, prims, rf, 0, NewFrameBuffer(64, 64))
		if got := w.Clone(); !reflect.DeepEqual(got, fresh) {
			t.Errorf("reused render differs from fresh:\n got %+v\nwant %+v", got, fresh)
		}
	})
}
