package geom

import "math"

// Mat4 is a 4×4 float32 matrix in row-major order: element (r,c) is at
// index r*4+c. Vectors are treated as columns, so transformation is
// m.MulVec4(v) == M·v and composition reads right-to-left:
// proj.Mul(view).Mul(model) applies model first.
type Mat4 [16]float32

// Identity returns the 4×4 identity matrix.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Translate returns a translation matrix by (x, y, z).
func Translate(x, y, z float32) Mat4 {
	m := Identity()
	m[3], m[7], m[11] = x, y, z
	return m
}

// ScaleM returns a scaling matrix by (x, y, z).
func ScaleM(x, y, z float32) Mat4 {
	m := Identity()
	m[0], m[5], m[10] = x, y, z
	return m
}

// Mul returns the matrix product m·o.
func (m Mat4) Mul(o Mat4) Mat4 {
	var r Mat4
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			var sum float32
			for k := 0; k < 4; k++ {
				sum += m[row*4+k] * o[k*4+col]
			}
			r[row*4+col] = sum
		}
	}
	return r
}

// MulVec4 returns the matrix-vector product M·v.
func (m Mat4) MulVec4(v Vec4) Vec4 {
	return Vec4{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z + m[3]*v.W,
		m[4]*v.X + m[5]*v.Y + m[6]*v.Z + m[7]*v.W,
		m[8]*v.X + m[9]*v.Y + m[10]*v.Z + m[11]*v.W,
		m[12]*v.X + m[13]*v.Y + m[14]*v.Z + m[15]*v.W,
	}
}

// Perspective returns a right-handed perspective projection matrix with the
// given vertical field of view (radians), aspect ratio and near/far planes,
// producing clip-space z in [-w, w] (OpenGL convention).
func Perspective(fovY, aspect, near, far float32) Mat4 {
	f := 1 / float32(math.Tan(float64(fovY)/2))
	var m Mat4
	m[0] = f / aspect
	m[5] = f
	m[10] = (far + near) / (near - far)
	m[11] = 2 * far * near / (near - far)
	m[14] = -1
	return m
}

// Ortho returns an orthographic projection matrix mapping the box
// [l,r]×[b,t]×[n,f] onto clip space (OpenGL convention).
func Ortho(l, r, b, t, n, f float32) Mat4 {
	var m Mat4
	m[0] = 2 / (r - l)
	m[3] = -(r + l) / (r - l)
	m[5] = 2 / (t - b)
	m[7] = -(t + b) / (t - b)
	m[10] = -2 / (f - n)
	m[11] = -(f + n) / (f - n)
	m[15] = 1
	return m
}

// LookAt returns a right-handed view matrix with the camera at eye, looking
// at center, with the given up vector.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalize()
	s := f.Cross(up).Normalize()
	u := s.Cross(f)
	m := Identity()
	m[0], m[1], m[2] = s.X, s.Y, s.Z
	m[4], m[5], m[6] = u.X, u.Y, u.Z
	m[8], m[9], m[10] = -f.X, -f.Y, -f.Z
	m[3] = -s.Dot(eye)
	m[7] = -u.Dot(eye)
	m[11] = f.Dot(eye)
	return m
}
