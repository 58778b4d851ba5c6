package geom

import (
	"math/rand"
	"testing"
)

func insideClipVolume(v Vec4, eps float32) bool {
	return v.X >= -v.W-eps && v.X <= v.W+eps &&
		v.Y >= -v.W-eps && v.Y <= v.W+eps &&
		v.Z >= -v.W-eps && v.Z <= v.W+eps
}

func vtx(x, y, z, w float32) Vertex {
	return Vertex{Pos: Vec4{x, y, z, w}}
}

func TestClipTriangleFullyInside(t *testing.T) {
	a, b, c := vtx(0, 0, 0, 1), vtx(0.5, 0, 0, 1), vtx(0, 0.5, 0, 1)
	out := ClipTriangle(nil, a, b, c)
	if len(out) != 3 {
		t.Fatalf("inside triangle should pass through, got %d vertices", len(out))
	}
	if out[0] != a || out[1] != b || out[2] != c {
		t.Error("inside triangle should be unchanged")
	}
}

func TestClipTriangleFullyOutside(t *testing.T) {
	// Entirely beyond the right plane (x > w).
	a, b, c := vtx(2, 0, 0, 1), vtx(3, 0, 0, 1), vtx(2, 1, 0, 1)
	out := ClipTriangle(nil, a, b, c)
	if len(out) != 0 {
		t.Fatalf("outside triangle should be rejected, got %d vertices", len(out))
	}
}

func TestClipTrianglePartialProducesValidVertices(t *testing.T) {
	// Straddles the right plane.
	a, b, c := vtx(0, 0, 0, 1), vtx(2, 0, 0, 1), vtx(0, 1, 0, 1)
	out := ClipTriangle(nil, a, b, c)
	if len(out) == 0 || len(out)%3 != 0 {
		t.Fatalf("clipped output must be whole triangles, got %d vertices", len(out))
	}
	for i, v := range out {
		if !insideClipVolume(v.Pos, 1e-4) {
			t.Errorf("vertex %d outside clip volume: %+v", i, v.Pos)
		}
	}
}

func TestClipTriangleCornerOverlap(t *testing.T) {
	// A large triangle covering the entire volume clips to a quad or more.
	a, b, c := vtx(-10, -10, 0, 1), vtx(10, -10, 0, 1), vtx(0, 10, 0, 1)
	out := ClipTriangle(nil, a, b, c)
	if len(out) == 0 {
		t.Fatal("covering triangle should survive clipping")
	}
	for _, v := range out {
		if !insideClipVolume(v.Pos, 1e-3) {
			t.Errorf("vertex outside clip volume: %+v", v.Pos)
		}
	}
}

// Property: clipping preserves containment — every emitted vertex is inside
// the canonical volume, and output length is a multiple of 3.
func TestClipTriangleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		randV := func() Vertex {
			return Vertex{
				Pos: Vec4{
					rng.Float32()*6 - 3,
					rng.Float32()*6 - 3,
					rng.Float32()*6 - 3,
					rng.Float32()*2 + 0.5,
				},
				UV:    Vec2{rng.Float32(), rng.Float32()},
				Color: Vec3{rng.Float32(), rng.Float32(), rng.Float32()},
			}
		}
		a, b, c := randV(), randV(), randV()
		out := ClipTriangle(nil, a, b, c)
		if len(out)%3 != 0 {
			t.Fatalf("case %d: output not whole triangles (%d vertices)", i, len(out))
		}
		for _, v := range out {
			if !insideClipVolume(v.Pos, 1e-2) {
				t.Fatalf("case %d: vertex escaped clip volume: %+v", i, v.Pos)
			}
			if v.UV.X < -0.01 || v.UV.X > 1.01 || v.UV.Y < -0.01 || v.UV.Y > 1.01 {
				t.Fatalf("case %d: interpolated UV escaped input range: %+v", i, v.UV)
			}
		}
	}
}

func TestClipTriangleAppendsToDst(t *testing.T) {
	seed := []Vertex{vtx(9, 9, 9, 9)}
	out := ClipTriangle(seed, vtx(0, 0, 0, 1), vtx(0.1, 0, 0, 1), vtx(0, 0.1, 0, 1))
	if len(out) != 4 || out[0] != seed[0] {
		t.Errorf("ClipTriangle must append to dst, got %d vertices", len(out))
	}
}

func TestTriangleArea2(t *testing.T) {
	a, b, c := Vec2{0, 0}, Vec2{2, 0}, Vec2{0, 2}
	if got := TriangleArea2(a, b, c); got != 4 {
		t.Errorf("CCW area2 = %v, want 4", got)
	}
	if got := TriangleArea2(a, c, b); got != -4 {
		t.Errorf("CW area2 = %v, want -4", got)
	}
}

func TestEdgeFunctionSign(t *testing.T) {
	a, b := Vec2{0, 0}, Vec2{10, 0}
	if EdgeFunction(a, b, Vec2{5, 5}) <= 0 {
		t.Error("point left of edge should be positive")
	}
	if EdgeFunction(a, b, Vec2{5, -5}) >= 0 {
		t.Error("point right of edge should be negative")
	}
	if EdgeFunction(a, b, Vec2{5, 0}) != 0 {
		t.Error("point on edge should be zero")
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 9, 9}
	b := Rect{5, 5, 15, 15}
	c := a.Clip(b)
	if c != (Rect{5, 5, 9, 9}) {
		t.Errorf("clip = %v", c)
	}
	if c.Empty() {
		t.Error("clip of overlapping rects should not be empty")
	}
	far := Rect{100, 100, 110, 110}
	if !a.Clip(far).Empty() {
		t.Error("clip of disjoint rects should be empty")
	}
}
