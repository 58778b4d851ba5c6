package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float32) bool {
	return Abs(a-b) <= eps
}

func TestVec2Ops(t *testing.T) {
	a := Vec2{1, 2}
	b := Vec2{3, -4}
	if got := a.Add(b); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := b.Len(); !almostEq(got, 5, 1e-6) {
		t.Errorf("Len = %v", got)
	}
}

func TestVec2Lerp(t *testing.T) {
	a := Vec2{0, 0}
	b := Vec2{10, -10}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Vec2{5, -5}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVec3CrossOrthogonality(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := x.Cross(y)
	if z != (Vec3{0, 0, 1}) {
		t.Fatalf("x cross y = %v, want z", z)
	}
	// Property: cross product is orthogonal to both operands.
	bound := func(x float32) float32 {
		// Keep magnitudes small enough that intermediate products stay finite.
		return float32(math.Mod(float64(x), 100))
	}
	f := func(ax, ay, az, bx, by, bz float32) bool {
		a := Vec3{bound(ax), bound(ay), bound(az)}
		b := Vec3{bound(bx), bound(by), bound(bz)}
		c := a.Cross(b)
		scale := a.Len()*b.Len() + 1
		return almostEq(c.Dot(a)/scale, 0, 1e-2) && almostEq(c.Dot(b)/scale, 0, 1e-2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3Normalize(t *testing.T) {
	v := Vec3{3, 4, 0}.Normalize()
	if !almostEq(v.Len(), 1, 1e-6) {
		t.Errorf("normalized length = %v", v.Len())
	}
	zero := Vec3{}
	if zero.Normalize() != zero {
		t.Error("normalizing zero vector should return zero")
	}
}

func TestVec4PerspectiveDivide(t *testing.T) {
	v := Vec4{2, 4, 6, 2}
	got := v.PerspectiveDivide()
	if got != (Vec3{1, 2, 3}) {
		t.Errorf("PerspectiveDivide = %v", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float32 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestMat4Identity(t *testing.T) {
	v := Vec4{1, 2, 3, 4}
	if got := Identity().MulVec4(v); got != v {
		t.Errorf("I*v = %v", got)
	}
}

func TestMat4TranslateAndScale(t *testing.T) {
	m := Translate(1, 2, 3)
	p := m.MulVec4(Vec4{0, 0, 0, 1})
	if p != (Vec4{1, 2, 3, 1}) {
		t.Errorf("translate = %v", p)
	}
	s := ScaleM(2, 3, 4)
	p = s.MulVec4(Vec4{1, 1, 1, 1})
	if p != (Vec4{2, 3, 4, 1}) {
		t.Errorf("scale = %v", p)
	}
}

func TestMat4Composition(t *testing.T) {
	// Translate then scale vs. scale-of-translation: (S·T)(p) == S(T(p)).
	s := ScaleM(2, 2, 2)
	tr := Translate(1, 0, 0)
	p := Vec4{1, 1, 1, 1}
	left := s.Mul(tr).MulVec4(p)
	right := s.MulVec4(tr.MulVec4(p))
	if left != right {
		t.Errorf("composition mismatch: %v vs %v", left, right)
	}
}

func TestPerspectiveMapsNearFar(t *testing.T) {
	m := Perspective(float32(math.Pi/2), 1, 1, 100)
	near := m.MulVec4(Vec4{0, 0, -1, 1}).PerspectiveDivide()
	far := m.MulVec4(Vec4{0, 0, -100, 1}).PerspectiveDivide()
	if !almostEq(near.Z, -1, 1e-4) {
		t.Errorf("near plane maps to z=%v, want -1", near.Z)
	}
	if !almostEq(far.Z, 1, 1e-4) {
		t.Errorf("far plane maps to z=%v, want 1", far.Z)
	}
}

func TestOrthoMapsCorners(t *testing.T) {
	m := Ortho(0, 10, 0, 20, -1, 1)
	p := m.MulVec4(Vec4{0, 0, 0, 1}).PerspectiveDivide()
	if !almostEq(p.X, -1, 1e-6) || !almostEq(p.Y, -1, 1e-6) {
		t.Errorf("ortho min corner = %v", p)
	}
	p = m.MulVec4(Vec4{10, 20, 0, 1}).PerspectiveDivide()
	if !almostEq(p.X, 1, 1e-6) || !almostEq(p.Y, 1, 1e-6) {
		t.Errorf("ortho max corner = %v", p)
	}
}

func TestLookAtEyeMapsToOrigin(t *testing.T) {
	eye := Vec3{3, 4, 5}
	m := LookAt(eye, Vec3{0, 0, 0}, Vec3{0, 1, 0})
	p := m.MulVec4(V4(eye, 1)).PerspectiveDivide()
	if p.Len() > 1e-5 {
		t.Errorf("eye maps to %v, want origin", p)
	}
	// The look direction should map to -Z.
	ahead := m.MulVec4(Vec4{0, 0, 0, 1})
	if ahead.Z >= 0 {
		t.Errorf("look target should be in front (negative z), got %v", ahead)
	}
}
