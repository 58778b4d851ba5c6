package scene

import (
	"repro/internal/geom"
	"repro/internal/mem"
	"repro/internal/shader"
)

// BlendMode selects how fragment colors combine with the color buffer.
type BlendMode int

// Blend modes.
const (
	BlendOpaque BlendMode = iota
	BlendAlpha            // src-over
	BlendAdditive
)

// Material pairs a fragment program with its textures and blend state.
type Material struct {
	Program  shader.Program
	Textures []*Texture // one per Program.TexSamples (may be fewer: reused)
	Blend    BlendMode
	// DepthWrite disables Z updates for transparent passes.
	DepthWrite bool
	// ForceLateZ disables the Early-Z test (shader modifies depth).
	ForceLateZ bool
}

// DrawCall renders one mesh with one material and transform. Draw calls are
// processed in submission order, which the pipelines must preserve per tile.
type DrawCall struct {
	Mesh     *Mesh
	Material Material
	Model    geom.Mat4
	// UVOffset is added to every vertex UV (cheap texture scrolling, the
	// standard mobile idiom for animated backgrounds and terrains).
	UVOffset geom.Vec2
	// ScreenSpace draws bypass the scene camera and use the normalized
	// [0,1]² overlay projection — the standard UI/HUD pass of mobile games.
	ScreenSpace bool
	// VertexProgram is the vertex shader cost (BasicVertex when zero-value).
	VertexProgram shader.Program
}

// Camera holds view and projection.
type Camera struct {
	View geom.Mat4
	Proj geom.Mat4
}

// ViewProj returns the combined view-projection matrix.
func (c Camera) ViewProj() geom.Mat4 { return c.Proj.Mul(c.View) }

// OverlayProj is the projection used by ScreenSpace draws: normalized
// screen coordinates [0,1]² with a generous layer depth range.
func OverlayProj() geom.Mat4 { return geom.Ortho(0, 1, 0, 1, -64, 64) }

// Scene is one frame's worth of rendering input.
type Scene struct {
	Camera    Camera
	DrawCalls []DrawCall

	geomAlloc uint64 // bump allocator for mesh vertex addresses
}

// NewScene creates an empty scene with an identity camera.
func NewScene() *Scene {
	return &Scene{
		Camera:    Camera{View: geom.Identity(), Proj: geom.Identity()},
		geomAlloc: mem.GeometryBase,
	}
}

// Reset empties the scene for rebuilding while keeping the draw-call backing
// array, so a long-lived scene rebuilt every frame stops allocating once it
// reaches the frame's draw-call watermark. A Reset scene is indistinguishable
// from a new one: meshes keep their assigned geometry addresses (Add only
// assigns when Mesh.Base is zero), exactly as they would across fresh scenes.
func (s *Scene) Reset() {
	s.Camera = Camera{View: geom.Identity(), Proj: geom.Identity()}
	s.DrawCalls = s.DrawCalls[:0]
	s.geomAlloc = mem.GeometryBase
}

// Add appends a draw call, assigning the mesh a geometry-region address if it
// does not have one yet, and defaulting the vertex program.
func (s *Scene) Add(dc DrawCall) {
	if dc.Mesh.Base == 0 {
		dc.Mesh.Base = s.geomAlloc
		s.geomAlloc += (uint64(len(dc.Mesh.Vertices))*VertexBytes + 255) &^ 255
	}
	if dc.VertexProgram.Name == "" {
		dc.VertexProgram = shader.BasicVertex
	}
	if dc.Model == (geom.Mat4{}) {
		dc.Model = geom.Identity()
	}
	s.DrawCalls = append(s.DrawCalls, dc)
}
