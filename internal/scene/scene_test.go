package scene

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mem"
	"repro/internal/shader"
)

func TestTextureLayout(t *testing.T) {
	tx := NewTexture(0, 256, 128, 0x1000, 0)
	// Levels: 256x128 -> ... -> 1x1 gives 9 levels (len(256)=9).
	if tx.Levels != 9 {
		t.Errorf("levels = %d, want 9", tx.Levels)
	}
	w, h := tx.LevelDims(0)
	if w != 256 || h != 128 {
		t.Errorf("level 0 dims = %dx%d", w, h)
	}
	w, h = tx.LevelDims(8)
	if w != 1 || h != 1 {
		t.Errorf("last level dims = %dx%d", w, h)
	}
	// Footprint: sum of levels, ≥ base level alone, < 2x base level.
	base := uint64(256 * 128 * TexelBytes)
	if tx.SizeBytes() < base || tx.SizeBytes() > base*3/2 {
		t.Errorf("size = %d, base = %d", tx.SizeBytes(), base)
	}
}

// TestLevelDimsHalves checks the shift form of LevelDims against repeated
// halving (each step max(1, d/2)) on every power-of-two shape up to
// 4096×4096, for levels below zero, inside the chain and past its end.
func TestLevelDimsHalves(t *testing.T) {
	for wl := 0; wl <= 12; wl++ {
		for hl := 0; hl <= 12; hl++ {
			tx := &Texture{W: 1 << wl, H: 1 << hl}
			for l := -2; l <= 70; l++ {
				w, h := tx.W, tx.H
				for i := 0; i < l; i++ {
					w, h = max(1, w/2), max(1, h/2)
				}
				if gw, gh := tx.LevelDims(l); gw != w || gh != h {
					t.Fatalf("%dx%d level %d: LevelDims = %dx%d, halving gives %dx%d",
						tx.W, tx.H, l, gw, gh, w, h)
				}
			}
		}
	}
}

func TestClampLevel(t *testing.T) {
	tx := NewTexture(0, 64, 64, 0, 3)
	for l, want := range map[int]int{-5: 0, 0: 0, 1: 1, 2: 2, 3: 2, 99: 2} {
		if got := tx.ClampLevel(l); got != want {
			t.Errorf("ClampLevel(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestTexturePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two texture")
		}
	}()
	NewTexture(0, 100, 64, 0, 0)
}

func TestTexelAddrInRange(t *testing.T) {
	tx := NewTexture(0, 64, 64, 0x1000, 0)
	f := func(u, v float32, l uint8) bool {
		a := tx.Level(int(l%8)).TexelAddr(u, v)
		return a >= tx.Base && a < tx.Base+tx.SizeBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTexelAddrSpatialLocality(t *testing.T) {
	tx := NewTexture(0, 64, 64, 0, 0)
	// Adjacent texels inside one 4x4 block share a cache line.
	a := tx.Level(0).TexelAddr(0.01, 0.01) // texel (0,0)
	b := tx.Level(0).TexelAddr(0.03, 0.03) // texel (1,1) – wait, 0.03*64 = 1.9 -> texel 1
	if a/64 != b/64 {
		t.Errorf("texels in the same block should share a line: %#x vs %#x", a, b)
	}
	// Distinct blocks get distinct lines.
	c := tx.Level(0).TexelAddr(0.5, 0.5)
	if a/64 == c/64 {
		t.Error("distant texels should not share a line")
	}
}

func TestTexelAddrWraps(t *testing.T) {
	tx := NewTexture(0, 64, 64, 0, 0)
	a := tx.Level(0).TexelAddr(0.25, 0.25)
	b := tx.Level(0).TexelAddr(1.25, -0.75)
	if a != b {
		t.Errorf("repeat addressing should wrap: %#x vs %#x", a, b)
	}
}

func TestTexelAddrClampsLevel(t *testing.T) {
	tx := NewTexture(0, 16, 16, 0, 0)
	lo := tx.Level(-3).TexelAddr(0.5, 0.5)
	hi := tx.Level(99).TexelAddr(0.5, 0.5)
	if lo < tx.Base || hi >= tx.Base+tx.SizeBytes() {
		t.Error("clamped levels out of range")
	}
}

func TestTextureAllocatorDisjoint(t *testing.T) {
	a := NewTextureAllocator()
	t1 := a.Alloc(128, 128)
	t2 := a.Alloc(64, 64)
	if t1.ID == t2.ID {
		t.Error("IDs must be unique")
	}
	if t2.Base < t1.Base+t1.SizeBytes() {
		t.Error("texture ranges overlap")
	}
	if t1.Base < mem.TextureBase {
		t.Error("textures must live in the texture region")
	}
}

// TestTextureAllocatorStaysInRegion checks that the allocator refuses a
// texture that would run past the texture region's end, mem.FrameBase, so
// every texture address fits the trace's 32 bits. Three 8192² textures with
// their mip chains take a little over the region's 1 GiB: two fit.
func TestTextureAllocatorStaysInRegion(t *testing.T) {
	a := NewTextureAllocator()
	for i := 0; i < 2; i++ {
		if tx := a.Alloc(8192, 8192); tx.Base+tx.SizeBytes() > mem.FrameBase {
			t.Fatalf("texture %d ends at %#x, past the region's end", i, tx.Base+tx.SizeBytes())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("the allocator handed out a texture past the texture region's end")
		}
	}()
	a.Alloc(8192, 8192)
}

func TestMeshBuilders(t *testing.T) {
	tris := func(m *Mesh) int { return len(m.Indices) / 3 }
	q := NewQuad(1, 1)
	if tris(q) != 2 || len(q.Vertices) != 4 {
		t.Errorf("quad: %d tris, %d verts", tris(q), len(q.Vertices))
	}
	g := NewGrid(4, 3, nil)
	if tris(g) != 4*3*2 {
		t.Errorf("grid tris = %d, want 24", tris(g))
	}
	if len(g.Vertices) != 5*4 {
		t.Errorf("grid verts = %d, want 20", len(g.Vertices))
	}
	b := NewBox()
	if tris(b) != 12 {
		t.Errorf("box tris = %d, want 12", tris(b))
	}
	d := NewDisc(8)
	if tris(d) != 8 {
		t.Errorf("disc tris = %d, want 8", tris(d))
	}
	if tris(NewDisc(1)) != 3 {
		t.Error("degenerate disc should clamp to 3 segments")
	}
}

func TestGridHeightFunction(t *testing.T) {
	g := NewGrid(2, 2, func(x, z float32) float32 { return x + z })
	found := false
	for _, v := range g.Vertices {
		if v.Pos.Y != 0 {
			found = true
		}
		if v.Pos.Y != v.Pos.X+v.Pos.Z {
			t.Fatalf("height function not applied: %+v", v.Pos)
		}
	}
	if !found {
		t.Error("height function had no effect")
	}
}

func TestSceneAddAssignsAddresses(t *testing.T) {
	s := NewScene()
	m1 := NewQuad(1, 1)
	m2 := NewQuad(1, 1)
	s.Add(DrawCall{Mesh: m1, Material: Material{Program: shader.Flat}})
	s.Add(DrawCall{Mesh: m2, Material: Material{Program: shader.Flat}})
	if m1.Base == 0 || m2.Base == 0 {
		t.Fatal("meshes should get geometry addresses")
	}
	if m1.Base == m2.Base {
		t.Error("distinct meshes must have distinct addresses")
	}
	if m1.Base < mem.GeometryBase {
		t.Error("mesh addresses must live in the geometry region")
	}
	if s.DrawCalls[0].VertexProgram.Name != shader.BasicVertex.Name {
		t.Error("default vertex program not applied")
	}
	tris := 0
	for _, dc := range s.DrawCalls {
		tris += len(dc.Mesh.Indices) / 3
	}
	if tris != 4 {
		t.Errorf("triangle count = %d, want 4", tris)
	}
}

func TestSceneAddKeepsExistingBase(t *testing.T) {
	s := NewScene()
	m := NewQuad(1, 1)
	s.Add(DrawCall{Mesh: m, Material: Material{Program: shader.Flat}})
	base := m.Base
	s.Add(DrawCall{Mesh: m, Material: Material{Program: shader.Flat}})
	if m.Base != base {
		t.Error("re-adding a mesh must not reassign its address")
	}
}

func TestVertexAddr(t *testing.T) {
	m := NewQuad(1, 1)
	m.Base = 0x1000
	if m.VertexAddr(0) != 0x1000 || m.VertexAddr(2) != 0x1000+2*VertexBytes {
		t.Error("vertex addressing wrong")
	}
}

func TestCameraViewProj(t *testing.T) {
	c := Camera{View: geom.Translate(1, 0, 0), Proj: geom.ScaleM(2, 2, 2)}
	p := c.ViewProj().MulVec4(geom.Vec4{W: 1})
	if p != (geom.Vec4{X: 2, W: 1}) {
		t.Errorf("view-proj composition = %v", p)
	}
}

func TestShaderCosts(t *testing.T) {
	if shader.Flat.InstructionsPerInvocation() != 5 {
		t.Errorf("flat cost = %d", shader.Flat.InstructionsPerInvocation())
	}
	if shader.LitDetail.InstructionsPerInvocation() <= shader.Sprite.InstructionsPerInvocation() {
		t.Error("lit-detail must cost more than sprite")
	}
}
