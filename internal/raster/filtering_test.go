package raster

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// renderFiltered rasterizes one textured triangle under the given filter and
// returns the work trace.
func renderFiltered(f Filtering) TileWork {
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
	r.SetFiltering(f)
	return r.RenderTile(sc, []gpipe.Primitive{tri(0, 0, 32, 0, 0, 32, 0.5)}, refs(1), 0, fb)
}

func TestBilinearTouchesMoreLines(t *testing.T) {
	nearest := renderFiltered(FilterNearest)
	bilinear := renderFiltered(FilterBilinear)
	trilinear := renderFiltered(FilterTrilinear)
	if len(bilinear.TexLines) < len(nearest.TexLines) {
		t.Errorf("bilinear lines (%d) should be >= nearest (%d)",
			len(bilinear.TexLines), len(nearest.TexLines))
	}
	if len(trilinear.TexLines) <= len(bilinear.TexLines) {
		t.Errorf("trilinear lines (%d) should exceed bilinear (%d)",
			len(trilinear.TexLines), len(bilinear.TexLines))
	}
	// Filtering changes memory traffic, not shading cost or coverage.
	if nearest.Instructions != bilinear.Instructions {
		t.Error("filtering must not change instruction counts")
	}
	if nearest.FragmentsShaded != trilinear.FragmentsShaded {
		t.Error("filtering must not change coverage")
	}
}

func TestFilteringImageUnchanged(t *testing.T) {
	// The procedural color uses the base texel, so the image is identical
	// across filters (only the traffic differs) — keeps the
	// scheduler-invariance property intact.
	grid := tiling.NewGrid(32, 32)
	alloc := scene.NewTextureAllocator()
	tex := alloc.Alloc(128, 128)
	sc := buildScene(scene.Material{
		Program:  shader.Textured,
		Textures: []*scene.Texture{tex},
		Blend:    scene.BlendOpaque, DepthWrite: true,
	})
	render := func(f Filtering) uint64 {
		fb := NewFrameBuffer(32, 32)
		r := NewRenderer(grid)
		r.SetFiltering(f)
		r.RenderTile(sc, []gpipe.Primitive{tri(0, 0, 32, 0, 0, 32, 0.5)}, refs(1), 0, fb)
		return fb.Hash()
	}
	if render(FilterNearest) != render(FilterTrilinear) {
		t.Error("filtering should not change the functional image")
	}
}

func TestQuadTexRangesStayConsistentUnderFiltering(t *testing.T) {
	w := renderFiltered(FilterTrilinear)
	var total int
	for _, q := range w.Quads {
		total += int(q.TexCount)
	}
	if total != len(w.TexLines) {
		t.Errorf("quad counts %d != stream %d", total, len(w.TexLines))
	}
}

// TestBilinearStepOnTruncatedChain samples a texture whose mip chain stops
// at 16×16 (three of its seven levels) at a level minified past the end of
// the chain. The sample reads the last stored level, so its bilinear
// neighbours must be one texel of that level apart: the footprint equals
// the one sampled at the last level itself, not one stepped by the texel
// size of a level that is not stored.
func TestBilinearStepOnTruncatedChain(t *testing.T) {
	tex := scene.NewTexture(0, 64, 64, 0x1000, 3)
	r := NewRenderer(tiling.NewGrid(32, 32))
	r.SetFiltering(FilterBilinear)
	footprint := func(level int) []uint32 {
		var w TileWork
		r.sampleFootprint(&w, 0, quadLevels{cur: tex.Level(level)}, geom.V2(0.1, 0.1))
		return w.TexLines
	}
	last := footprint(tex.Levels - 1)
	for level := tex.Levels; level < 8; level++ {
		if got := footprint(level); !slices.Equal(got, last) {
			t.Errorf("level %d footprint %#x, want the last level's %#x", level, got, last)
		}
	}
}
