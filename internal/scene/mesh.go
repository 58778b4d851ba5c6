package scene

import (
	"math"

	"repro/internal/geom"
)

// VertexBytes is the storage size of one vertex in the simulated geometry
// region: position (12) + UV (8) + color (12).
const VertexBytes = 32

// MeshVertex is a model-space vertex.
type MeshVertex struct {
	Pos   geom.Vec3
	UV    geom.Vec2
	Color geom.Vec3
}

// Mesh is an indexed triangle list with a base address for vertex fetch.
type Mesh struct {
	Vertices []MeshVertex
	Indices  []int
	Base     uint64 // address of vertex 0 in the geometry region
}

// VertexAddr returns the simulated address of vertex i.
func (m *Mesh) VertexAddr(i int) uint64 {
	return m.Base + uint64(i)*VertexBytes
}

// NewQuad builds a unit quad in the XY plane, centered at origin, facing +Z,
// with UVs covering [0, uRepeat]×[0, vRepeat].
func NewQuad(uRepeat, vRepeat float32) *Mesh {
	return &Mesh{
		Vertices: []MeshVertex{
			{Pos: geom.V3(-0.5, -0.5, 0), UV: geom.V2(0, 0), Color: geom.V3(1, 1, 1)},
			{Pos: geom.V3(0.5, -0.5, 0), UV: geom.V2(uRepeat, 0), Color: geom.V3(1, 1, 1)},
			{Pos: geom.V3(0.5, 0.5, 0), UV: geom.V2(uRepeat, vRepeat), Color: geom.V3(1, 1, 1)},
			{Pos: geom.V3(-0.5, 0.5, 0), UV: geom.V2(0, vRepeat), Color: geom.V3(1, 1, 1)},
		},
		Indices: []int{0, 1, 2, 0, 2, 3},
	}
}

// NewGrid builds an (nx × nz) grid of quads in the XZ plane spanning
// [-0.5, 0.5]² with optional per-vertex height displacement, used for
// terrains and tiled grounds.
func NewGrid(nx, nz int, height func(x, z float32) float32) *Mesh {
	m := &Mesh{}
	for iz := 0; iz <= nz; iz++ {
		for ix := 0; ix <= nx; ix++ {
			x := float32(ix)/float32(nx) - 0.5
			z := float32(iz)/float32(nz) - 0.5
			y := float32(0)
			if height != nil {
				y = height(x, z)
			}
			m.Vertices = append(m.Vertices, MeshVertex{
				Pos:   geom.V3(x, y, z),
				UV:    geom.V2(float32(ix)/float32(nx)*4, float32(iz)/float32(nz)*4),
				Color: geom.V3(1, 1, 1),
			})
		}
	}
	stride := nx + 1
	for iz := 0; iz < nz; iz++ {
		for ix := 0; ix < nx; ix++ {
			a := iz*stride + ix
			b := a + 1
			c := a + stride
			d := c + 1
			m.Indices = append(m.Indices, a, b, d, a, d, c)
		}
	}
	return m
}

// NewBox builds a unit cube centered at origin with per-face UVs.
func NewBox() *Mesh {
	m := &Mesh{}
	faces := [][4]geom.Vec3{
		{geom.V3(-0.5, -0.5, 0.5), geom.V3(0.5, -0.5, 0.5), geom.V3(0.5, 0.5, 0.5), geom.V3(-0.5, 0.5, 0.5)},     // +Z
		{geom.V3(0.5, -0.5, -0.5), geom.V3(-0.5, -0.5, -0.5), geom.V3(-0.5, 0.5, -0.5), geom.V3(0.5, 0.5, -0.5)}, // -Z
		{geom.V3(0.5, -0.5, 0.5), geom.V3(0.5, -0.5, -0.5), geom.V3(0.5, 0.5, -0.5), geom.V3(0.5, 0.5, 0.5)},     // +X
		{geom.V3(-0.5, -0.5, -0.5), geom.V3(-0.5, -0.5, 0.5), geom.V3(-0.5, 0.5, 0.5), geom.V3(-0.5, 0.5, -0.5)}, // -X
		{geom.V3(-0.5, 0.5, 0.5), geom.V3(0.5, 0.5, 0.5), geom.V3(0.5, 0.5, -0.5), geom.V3(-0.5, 0.5, -0.5)},     // +Y
		{geom.V3(-0.5, -0.5, -0.5), geom.V3(0.5, -0.5, -0.5), geom.V3(0.5, -0.5, 0.5), geom.V3(-0.5, -0.5, 0.5)}, // -Y
	}
	uvs := [4]geom.Vec2{geom.V2(0, 0), geom.V2(1, 0), geom.V2(1, 1), geom.V2(0, 1)}
	for _, f := range faces {
		base := len(m.Vertices)
		for i, p := range f {
			m.Vertices = append(m.Vertices, MeshVertex{Pos: p, UV: uvs[i], Color: geom.V3(1, 1, 1)})
		}
		m.Indices = append(m.Indices, base, base+1, base+2, base, base+2, base+3)
	}
	return m
}

// NewDisc builds a triangle fan approximating a disc in the XY plane
// (characters, coins, round UI widgets).
func NewDisc(segments int) *Mesh {
	if segments < 3 {
		segments = 3
	}
	m := &Mesh{}
	m.Vertices = append(m.Vertices, MeshVertex{UV: geom.V2(0.5, 0.5), Color: geom.V3(1, 1, 1)})
	for i := 0; i <= segments; i++ {
		a := 2 * math.Pi * float64(i) / float64(segments)
		x := float32(math.Cos(a)) * 0.5
		y := float32(math.Sin(a)) * 0.5
		m.Vertices = append(m.Vertices, MeshVertex{
			Pos:   geom.V3(x, y, 0),
			UV:    geom.V2(0.5+x, 0.5+y),
			Color: geom.V3(1, 1, 1),
		})
	}
	for i := 1; i <= segments; i++ {
		m.Indices = append(m.Indices, 0, i, i+1)
	}
	return m
}
