// Package geom provides the linear-algebra and computational-geometry
// primitives used by the rest of the simulator: small fixed-size vectors and
// matrices, screen-space rectangles, clip-space triangle clipping and edge
// functions.
//
// All types use float32, matching the arithmetic width of mobile GPU
// shader cores; the package is allocation-free on its hot paths.
package geom

import "math"

// Vec2 is a 2-component float32 vector (texture coordinates, screen points).
type Vec2 struct {
	X, Y float32
}

// V2 constructs a Vec2.
func V2(x, y float32) Vec2 { return Vec2{x, y} }

// V3 constructs a Vec3.
func V3(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Dot returns the dot product of v and o.
func (v Vec2) Dot(o Vec2) float32 { return v.X*o.X + v.Y*o.Y }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float32 { return float32(math.Sqrt(float64(v.Dot(v)))) }

// Lerp returns v + t*(o-v).
func (v Vec2) Lerp(o Vec2, t float32) Vec2 {
	return Vec2{v.X + t*(o.X-v.X), v.Y + t*(o.Y-v.Y)}
}

// Vec3 is a 3-component float32 vector (positions, normals, colors).
type Vec3 struct {
	X, Y, Z float32
}

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float32) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise product of v and o.
func (v Vec3) Mul(o Vec3) Vec3 { return Vec3{v.X * o.X, v.Y * o.Y, v.Z * o.Z} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float32 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns the cross product v × o.
func (v Vec3) Cross(o Vec3) Vec3 {
	return Vec3{
		v.Y*o.Z - v.Z*o.Y,
		v.Z*o.X - v.X*o.Z,
		v.X*o.Y - v.Y*o.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float32 { return float32(math.Sqrt(float64(v.Dot(v)))) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp returns v + t*(o-v).
func (v Vec3) Lerp(o Vec3, t float32) Vec3 {
	return Vec3{v.X + t*(o.X-v.X), v.Y + t*(o.Y-v.Y), v.Z + t*(o.Z-v.Z)}
}

// Vec4 is a 4-component float32 vector (homogeneous/clip-space positions).
type Vec4 struct {
	X, Y, Z, W float32
}

// V4 builds a Vec4 from a Vec3 and an explicit w component.
func V4(v Vec3, w float32) Vec4 { return Vec4{v.X, v.Y, v.Z, w} }

// Lerp returns v + t*(o-v).
func (v Vec4) Lerp(o Vec4, t float32) Vec4 {
	return Vec4{
		v.X + t*(o.X-v.X),
		v.Y + t*(o.Y-v.Y),
		v.Z + t*(o.Z-v.Z),
		v.W + t*(o.W-v.W),
	}
}

// PerspectiveDivide maps a clip-space position to normalized device
// coordinates by dividing by w. W must be non-zero.
func (v Vec4) PerspectiveDivide() Vec3 {
	inv := 1 / v.W
	return Vec3{v.X * inv, v.Y * inv, v.Z * inv}
}

// Clamp returns x limited to the closed interval [lo, hi].
func Clamp(x, lo, hi float32) float32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Abs returns the absolute value of x.
func Abs(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
