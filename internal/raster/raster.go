package raster

import (
	"math"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/tiling"
)

// ClearColor is the background color of every frame.
const ClearColor uint32 = 0xFF101820

// QuadMeta is the trace record of one shaded 2×2 quad: everything the timing
// engine needs to replay its cost against a shader core, in 8 bytes.
type QuadMeta struct {
	Fragments uint8  // fragments actually shaded
	Instr     uint16 // total dynamic shader instructions for the quad
	// TexCount is the number of distinct texture lines the quad reads: the
	// TexCount entries of TileWork.TexLines that follow the earlier quads'.
	TexCount uint16
	// Samples is the number of per-fragment texture samples issued; the
	// quad's fragments coalesce onto TexCount distinct lines (real texture
	// units merge same-line requests within a quad), so hit-ratio
	// accounting uses Samples while timing replays the distinct lines.
	Samples uint16
}

// TileWork is the complete rendering trace of one tile: the Raster Unit's
// workload in program order, plus the memory traffic of the Tile Fetcher
// (PBReads) and the Color Buffer flush (FlushLines). Addresses are 32-bit
// byte addresses: every region of the simulated address space lies below
// mem.AddrLimit, so none is truncated. The replay widens them to the memory
// model's uint64.
type TileWork struct {
	TileID     int
	Quads      []QuadMeta
	TexLines   []uint32 // texture line addresses, quad after quad
	PBReads    []uint32 // Parameter Buffer entry addresses (Tile Fetcher)
	FlushLines []uint32 // Frame Buffer line writes at tile flush

	Instructions    uint64 // total shader instructions (temperature denominator)
	FragmentsShaded int
	FragmentsKilled int // killed by Early-Z
	PixelsCovered   int
	Primitives      int
}

// Reset clears the work to an empty trace for tileID while keeping the
// backing arrays of its slices, so a long-lived TileWork can absorb one tile
// after another without allocating once its slices have grown to the hot
// tile's watermark.
func (w *TileWork) Reset(tileID int) {
	w.TileID = tileID
	w.Quads = w.Quads[:0]
	w.TexLines = w.TexLines[:0]
	w.PBReads = w.PBReads[:0]
	w.FlushLines = w.FlushLines[:0]
	w.Instructions = 0
	w.FragmentsShaded = 0
	w.FragmentsKilled = 0
	w.PixelsCovered = 0
	w.Primitives = 0
}

// Clone deep-copies the work so it stays valid after the source's buffers are
// reused. Empty slices become nil, matching a freshly rendered TileWork, so
// clones of reused and fresh renders are reflect.DeepEqual-identical.
func (w TileWork) Clone() TileWork {
	c := w
	c.Quads = cloneSlice(w.Quads)
	c.TexLines = cloneSlice(w.TexLines)
	c.PBReads = cloneSlice(w.PBReads)
	c.FlushLines = cloneSlice(w.FlushLines)
	return c
}

func cloneSlice[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Filtering selects the texture sampling footprint.
type Filtering int

// Texture filtering modes. The filter determines how many texel lines each
// fragment touches: nearest reads one texel, bilinear a 2×2 footprint (up to
// 4 lines at block corners), trilinear a 2×2 footprint in each of two
// adjacent mip levels.
const (
	FilterNearest Filtering = iota
	FilterBilinear
	FilterTrilinear
)

// Renderer rasterizes tiles. The Z-Buffer and Color Buffer are the on-chip
// tile-sized buffers of the TBR architecture; one Renderer is private to one
// Raster Unit. A Renderer is not safe for concurrent use.
//
// Concurrency contract: RenderTile is a pure function of (scene, prims,
// refs, tileID) plus the receiver's private buffers, which it fully resets
// per tile — it never reads the FrameBuffer and writes only the pixels of
// its own tile. Distinct Renderer instances may therefore render distinct
// tiles of the same frame concurrently, sharing the scene, primitive slice
// and FrameBuffer, and produce results identical to any serial order. The
// parallel simulation mode (internal/sim, Config.Workers) depends on this.
type Renderer struct {
	grid   tiling.Grid
	filter Filtering
	zbuf   [tiling.TileSize * tiling.TileSize]float32
	cbuf   [tiling.TileSize * tiling.TileSize]uint32
	// levels holds rasterPrim's per-quad mip levels of each sampled texture,
	// kept here so its storage outlives one primitive.
	levels []quadLevels
}

// quadLevels are the stored mip levels one quad's samples of a texture read:
// cur for the sample itself, next for trilinear filtering's second level
// (nil when the filter or the mip chain has none).
type quadLevels struct {
	cur, next *scene.MipLevel
}

// NewRenderer builds a tile renderer for the given grid with nearest
// filtering.
func NewRenderer(grid tiling.Grid) *Renderer {
	return &Renderer{grid: grid}
}

// SetFiltering selects the texture sampling footprint for subsequent tiles.
func (r *Renderer) SetFiltering(f Filtering) { r.filter = f }

// RenderTile renders one tile: consumes the tile's primitive list in program
// order, performs depth test and blending against the on-chip buffers,
// flushes the Color Buffer into fb, and returns the tile's work trace in
// freshly allocated storage. The steady-state frame loop uses RenderTileInto
// instead, which reuses a caller-owned TileWork.
func (r *Renderer) RenderTile(sc *scene.Scene, prims []gpipe.Primitive, refs []tiling.PrimRef, tileID int, fb *FrameBuffer) TileWork {
	var w TileWork
	r.RenderTileInto(&w, sc, prims, refs, tileID, fb)
	return w
}

// RenderTileInto is RenderTile appending into w's existing storage: w is
// Reset for tileID and its slices grow only past their previous capacity, so
// rendering tile after tile into one TileWork allocates nothing once the
// buffers reach the frame's hot-tile watermark. The produced trace is
// value-identical to RenderTile's (only slice capacities may differ); w's
// slices are owned by the caller and invalidated by the next RenderTileInto
// on the same w.
//
//libra:hotpath
//libra:transient
func (r *Renderer) RenderTileInto(w *TileWork, sc *scene.Scene, prims []gpipe.Primitive, refs []tiling.PrimRef, tileID int, fb *FrameBuffer) {
	rect := r.grid.TileRect(tileID)
	w.Reset(tileID)

	// Reset on-chip buffers (free on real hardware).
	for i := range r.zbuf {
		r.zbuf[i] = math.MaxFloat32
		r.cbuf[i] = ClearColor
	}

	for _, ref := range refs {
		w.PBReads = append(w.PBReads, uint32(ref.Addr))
		p := &prims[ref.Prim]
		dc := &sc.DrawCalls[p.Draw]
		r.rasterPrim(p, &dc.Material, rect, w)
		w.Primitives++
	}

	// Flush Color Buffer to the Frame Buffer.
	for y := rect.MinY; y <= rect.MaxY; y++ {
		for x := rect.MinX; x <= rect.MaxX; x++ {
			fb.Pixels[y*fb.W+x] = r.cbuf[r.local(x, y, rect)]
		}
	}
	w.FlushLines = fb.AppendTileFlushLines(w.FlushLines, r.grid, tileID)
}

// local maps screen pixel (x, y) to the tile-local buffer index.
func (r *Renderer) local(x, y int, rect geom.Rect) int {
	return (y-rect.MinY)*tiling.TileSize + (x - rect.MinX)
}

// edge precomputation for one triangle edge: e(x, y) = A*x + B*y + C, with
// the top-left fill rule bias folded into the comparison.
type edge struct {
	A, B, C float32
	topLeft bool
	// colAt0 + colPerY*py estimates, in float64, the column whose pixel
	// center the edge crosses on the row at py (clipRow's seed; A != 0).
	colAt0, colPerY float64
}

func makeEdge(ax, ay, bx, by float32) edge {
	// e(p) = (bx-ax)(py-ay) - (by-ay)(px-ax), rearranged to A*px+B*py+C.
	a := -(by - ay)
	b := bx - ax
	c := -(a*ax + b*ay)
	// Top-left fill rule: a pixel center exactly on an edge (e == 0) belongs
	// to the triangle only if the edge is a left edge (it runs toward
	// smaller y, dy < 0) or a top edge (horizontal, running toward smaller
	// x), so a center on the edge shared by two triangles is shaded once.
	dy := by - ay
	dx := bx - ax
	topLeft := dy < 0 || (dy == 0 && dx < 0)
	e := edge{A: a, B: b, C: c, topLeft: topLeft}
	if a != 0 {
		inv := 1 / float64(a)
		e.colAt0 = -float64(c)*inv - 0.5
		e.colPerY = -float64(b) * inv
	}
	return e
}

func (e edge) eval(x, y float32) float32 { return e.A*x + e.B*y + e.C }

func (e edge) inside(v float32) bool {
	if v > 0 {
		return true
	}
	return v == 0 && e.topLeft
}

// covers reports whether the center of pixel column x on the row whose
// centers lie at py passes the edge test.
func (e edge) covers(x int, py float32) bool {
	return e.inside(e.eval(float32(x)+0.5, py))
}

// clipRow narrows the column range [lo, hi] of the row at py to the columns
// whose centers pass the edge test, returning lo > hi when none does.
//
// The result is exact, not conservative: along a row eval is monotone in x
// (each float32 rounding step is monotone, with or without FMA fusion), so
// covers holds on a suffix of the row when A > 0, on a prefix when A < 0,
// and everywhere or nowhere when A is zero or NaN. The float64 crossing
// estimate only seeds the search; the covers steps that follow fix the
// boundary, and both stay inside [lo, hi] whatever the estimate, so NaN or
// infinite coordinates cannot send the walk out of the bounding box.
func (e *edge) clipRow(py float32, lo, hi int) (int, int) {
	col := e.colAt0 + e.colPerY*float64(py)
	switch {
	case e.A > 0:
		// The first covered column, seeded with ceil(col) in [lo, hi+1].
		x := lo
		if col > float64(hi) {
			x = hi + 1
		} else if col > float64(lo) {
			x = int(col)
			if float64(x) < col {
				x++
			}
		}
		for x > lo && e.covers(x-1, py) {
			x--
		}
		for x <= hi && !e.covers(x, py) {
			x++
		}
		return x, hi
	case e.A < 0:
		// The last covered column, seeded with floor(col) in [lo-1, hi].
		x := hi
		if col < float64(lo) {
			x = lo - 1
		} else if col < float64(hi) {
			x = int(col)
		}
		for x < hi && e.covers(x+1, py) {
			x++
		}
		for x >= lo && !e.covers(x, py) {
			x--
		}
		return lo, x
	default:
		if e.covers(lo, py) {
			return lo, hi
		}
		return lo, lo - 1
	}
}

// triangle is the setup of one counter-clockwise triangle: its edge
// functions, whose values at a pixel center times invArea are the
// barycentrics λ0, λ1, λ2, and the vertex attributes they weight, copied
// out of the vertices so that each interpolation piece below is small
// enough to inline into the fragment loop.
type triangle struct {
	e12, e20, e01 edge // λ0, λ1, λ2
	invArea       float32
	z             [3]float32 // vertex depths
	invW          [3]float32 // vertex 1/w, the perspective weights
	uvs           [3]geom.Vec2
	colors        [3]geom.Vec3
}

// rowSpan returns the first and last column in [lo, hi] whose pixel center
// on the row at py passes all three edge tests, with lo > hi when none does
// (exact, see edge.clipRow).
func (t *triangle) rowSpan(py float32, lo, hi int) (int, int) {
	lo, hi = t.e12.clipRow(py, lo, hi)
	if lo <= hi {
		lo, hi = t.e20.clipRow(py, lo, hi)
	}
	if lo <= hi {
		lo, hi = t.e01.clipRow(py, lo, hi)
	}
	return lo, hi
}

// depth interpolates the vertex depths with barycentrics l0, l1, l2
// (linearly: screen-space Z is affine across the triangle).
func (t *triangle) depth(l0, l1, l2 float32) float32 {
	return l0*t.z[0] + l1*t.z[1] + l2*t.z[2]
}

// persp returns the perspective-correct weights q0, q1, q2 of barycentrics
// l0, l1, l2 and the inverse of their sum; ok is false where the sum, the
// perspective denominator, vanishes.
func (t *triangle) persp(l0, l1, l2 float32) (q0, q1, q2, inv float32, ok bool) {
	q0 = l0 * t.invW[0]
	q1 = l1 * t.invW[1]
	q2 = l2 * t.invW[2]
	den := q0 + q1 + q2
	if den == 0 {
		return 0, 0, 0, 0, false
	}
	return q0, q1, q2, 1 / den, true
}

// uv interpolates the vertex UVs with persp's weights.
func (t *triangle) uv(q0, q1, q2, inv float32) geom.Vec2 {
	a, b, c := t.uvs[0], t.uvs[1], t.uvs[2]
	return geom.Vec2{
		X: (q0*a.X + q1*b.X + q2*c.X) * inv,
		Y: (q0*a.Y + q1*b.Y + q2*c.Y) * inv,
	}
}

// color interpolates the vertex colors with persp's weights.
func (t *triangle) color(q0, q1, q2, inv float32) geom.Vec3 {
	a, b, c := t.colors[0], t.colors[1], t.colors[2]
	return geom.Vec3{
		X: (q0*a.X + q1*b.X + q2*c.X) * inv,
		Y: (q0*a.Y + q1*b.Y + q2*c.Y) * inv,
		Z: (q0*a.Z + q1*b.Z + q2*c.Z) * inv,
	}
}

// uvAt is the interpolated UV at pixel center (px, py); ok as for persp.
func (t *triangle) uvAt(px, py float32) (uv geom.Vec2, ok bool) {
	q0, q1, q2, inv, ok := t.persp(
		t.e12.eval(px, py)*t.invArea,
		t.e20.eval(px, py)*t.invArea,
		t.e01.eval(px, py)*t.invArea,
	)
	if !ok {
		return geom.Vec2{}, false
	}
	return t.uv(q0, q1, q2, inv), true
}

// rasterPrim rasterizes one triangle into the tile, quad by quad.
func (r *Renderer) rasterPrim(p *gpipe.Primitive, mat *scene.Material, rect geom.Rect, w *TileWork) {
	v0, v1, v2 := &p.V[0], &p.V[1], &p.V[2]
	area2 := geom.TriangleArea2(
		geom.V2(v0.Pos.X, v0.Pos.Y),
		geom.V2(v1.Pos.X, v1.Pos.Y),
		geom.V2(v2.Pos.X, v2.Pos.Y),
	)
	if area2 == 0 || geom.Abs(area2) < 1e-9 {
		return
	}
	if area2 < 0 {
		// Normalize to counter-clockwise so edge signs are uniform
		// (surfaces are double-sided: no backface culling, common in
		// mobile 2D/UI content).
		v1, v2 = v2, v1
		area2 = -area2
	}

	// Primitive bbox clipped to this tile, snapped to even pixels (quads).
	b := p.ScreenBounds(r.grid.ScreenW, r.grid.ScreenH).Clip(rect)
	if b.Empty() {
		return
	}
	qy0 := b.MinY &^ 1
	t := triangle{
		e12:     makeEdge(v1.Pos.X, v1.Pos.Y, v2.Pos.X, v2.Pos.Y),
		e20:     makeEdge(v2.Pos.X, v2.Pos.Y, v0.Pos.X, v0.Pos.Y),
		e01:     makeEdge(v0.Pos.X, v0.Pos.Y, v1.Pos.X, v1.Pos.Y),
		invArea: 1 / area2,
		z:       [3]float32{v0.Pos.Z, v1.Pos.Z, v2.Pos.Z},
		invW:    [3]float32{1 / v0.Pos.W, 1 / v1.Pos.W, 1 / v2.Pos.W},
		uvs:     [3]geom.Vec2{v0.UV, v1.UV, v2.UV},
		colors:  [3]geom.Vec3{v0.Color, v1.Color, v2.Color},
	}

	perFragInstr := mat.Program.InstructionsPerInvocation()
	nTex := mat.Program.TexSamples
	earlyZ := !mat.ForceLateZ
	opaque := mat.Blend == scene.BlendOpaque
	// Sample s2 of a fragment reads texture s2 % len(mat.Textures) at the
	// fragment's one UV, in the quad's mip levels of that texture,
	// levels[s2 % len(levels)]. So a sample s2 >= len(levels) repeats sample
	// s2 % len(levels) exactly: every line it touches is already among the
	// quad's, and its texel is unused. Only the len(levels) distinct ones
	// are taken; Samples still counts all nTex, as the texture unit issues
	// them.
	nLevels := min(nTex, len(mat.Textures))
	if cap(r.levels) < nLevels {
		r.levels = make([]quadLevels, nLevels)
	}
	levels := r.levels[:nLevels]

	// Each quad row visits only the quads holding a covered pixel center:
	// span[i] is the exact covered column range of pixel row qy+i, empty
	// (lo > hi) for a row outside the bounding box.
	var span [2][2]int
	for qy := qy0; qy <= b.MaxY; qy += 2 {
		qxLo, qxHi := b.MaxX+1, b.MinX-1
		for i := range span {
			lo, hi := b.MinX, b.MinX-1
			if y := qy + i; y >= b.MinY && y <= b.MaxY {
				lo, hi = t.rowSpan(float32(y)+0.5, b.MinX, b.MaxX)
			}
			if lo <= hi {
				qxLo, qxHi = min(qxLo, lo), max(qxHi, hi)
			}
			span[i] = [2]int{lo, hi}
		}
		for qx := qxLo &^ 1; qx <= qxHi; qx += 2 {
			// The quad's UV derivatives, and from them its mip levels, are
			// taken at its first textured fragment. Until they are known
			// (the perspective denominator can vanish at the neighbouring
			// centers, and the next fragment then tries again), samples
			// use zero derivatives, which select level 0.
			haveDeriv := false

			var quad QuadMeta
			texBefore := len(w.TexLines)

			for s := 0; s < 4; s++ {
				x := qx + (s & 1)
				y := qy + (s >> 1)
				if row := &span[s>>1]; x < row[0] || x > row[1] {
					continue
				}
				px, py := float32(x)+0.5, float32(y)+0.5
				ev12 := t.e12.eval(px, py)
				ev20 := t.e20.eval(px, py)
				ev01 := t.e01.eval(px, py)
				if !t.e12.inside(ev12) || !t.e20.inside(ev20) || !t.e01.inside(ev01) {
					continue
				}
				w.PixelsCovered++
				l0, l1, l2 := ev12*t.invArea, ev20*t.invArea, ev01*t.invArea
				z := t.depth(l0, l1, l2)
				q0, q1, q2, inv, ok := t.persp(l0, l1, l2)
				if !ok {
					continue
				}
				li := r.local(x, y, rect)
				if earlyZ && z >= r.zbuf[li] {
					w.FragmentsKilled++
					continue
				}

				// Shade the fragment.
				quad.Fragments++
				w.FragmentsShaded++
				quad.Instr += uint16(perFragInstr)

				texel := geom.V3(1, 1, 1)
				if nLevels > 0 {
					uv := t.uv(q0, q1, q2, inv)
					if !haveDeriv {
						uvX, okX := t.uvAt(px+1, py)
						uvY, okY := t.uvAt(px, py+1)
						haveDeriv = okX && okY
						var duvx, duvy geom.Vec2
						if haveDeriv {
							duvx, duvy = uvX.Sub(uv), uvY.Sub(uv)
						}
						for i := range levels {
							tex := mat.Textures[i]
							l := mipLevel(duvx, duvy, tex.W, tex.H)
							levels[i].cur = tex.Level(l)
							levels[i].next = nil
							if r.filter == FilterTrilinear && l+1 < tex.Levels {
								levels[i].next = tex.Level(l + 1)
							}
						}
					}
					// The first sample's texel colors the fragment.
					quad.Samples += uint16(nTex)
					texel = sampleColor(mat.Textures[0].ID, r.sampleFootprint(w, texBefore, levels[0], uv))
					for _, lv := range levels[1:] {
						r.sampleFootprint(w, texBefore, lv, uv)
					}
				}

				// Late Z-test after shading.
				if !earlyZ && z >= r.zbuf[li] {
					continue
				}
				if mat.DepthWrite {
					r.zbuf[li] = z
				}
				src := texel.Mul(t.color(q0, q1, q2, inv))
				if opaque {
					r.cbuf[li] = packColor(src)
				} else {
					r.cbuf[li] = blendPixel(mat.Blend, r.cbuf[li], src)
				}
			}
			if quad.Fragments > 0 {
				quad.TexCount = uint16(len(w.TexLines) - texBefore)
				w.Quads = append(w.Quads, quad)
				w.Instructions += uint64(quad.Instr)
			}
		}
	}
}

// sampleFootprint emits the texel-line accesses of one filtered texture
// sample at uv in the quad's levels lv into the tile work and returns the
// base texel address (used for the procedural color). The bilinear
// neighbours are one texel apart in the level the sample reads.
func (r *Renderer) sampleFootprint(w *TileWork, texBefore int, lv quadLevels, uv geom.Vec2) uint64 {
	cur := lv.cur
	base := cur.TexelAddr(uv.X, uv.Y)
	appendUniqueLine(&w.TexLines, texBefore, base)
	if r.filter >= FilterBilinear {
		appendUniqueLine(&w.TexLines, texBefore, cur.TexelAddr(uv.X+cur.DU, uv.Y))
		appendUniqueLine(&w.TexLines, texBefore, cur.TexelAddr(uv.X, uv.Y+cur.DV))
		appendUniqueLine(&w.TexLines, texBefore, cur.TexelAddr(uv.X+cur.DU, uv.Y+cur.DV))
	}
	if lv.next != nil {
		appendUniqueLine(&w.TexLines, texBefore, lv.next.TexelAddr(uv.X, uv.Y))
	}
	return base
}

// appendUniqueLine appends the line of texel address addr to *dst if it is
// not already present among the entries added for the current quad (from
// index start on). Textures lie below mem.FrameBase (scene's allocator
// checks it), so the line address fits in 32 bits.
func appendUniqueLine(dst *[]uint32, start int, addr uint64) {
	line := uint32(addr) &^ 63
	s := *dst
	for i := start; i < len(s); i++ {
		if s[i] == line {
			return
		}
	}
	*dst = append(*dst, line)
}

// mipLevel selects the mip level from screen-space UV derivatives by the
// standard rule: floor(log2) of the longer texel-space footprint, that is
// floor(0.5·log2 ρ) of its squared length ρ.
func mipLevel(duvx, duvy geom.Vec2, texW, texH int) int {
	fx := duvx.X * float32(texW)
	fy := duvx.Y * float32(texH)
	gx := duvy.X * float32(texW)
	gy := duvy.Y * float32(texH)
	return footprintLevel(max(fx*fx+fy*fy, gx*gx+gy*gy))
}

// footprintLevel is the mip level of squared footprint rho: 0 for rho ≤ 1,
// else floor(0.5·log2 rho). A float32 rho > 1 is 1.m·2^e with e its
// unbiased exponent, so floor(log2 rho) = e and the level is e>>1, read off
// the bits with no logarithm. NaN and +Inf go through
// int(0.5*math.Log2(rho)), whose conversion of a non-finite value to int is
// defined by the architecture, so they select the level they always did.
func footprintLevel(rho float32) int {
	if rho <= 1 {
		return 0
	}
	e := int(math.Float32bits(rho)>>23&0xFF) - 127
	if e == 128 {
		return int(0.5 * math.Log2(float64(rho)))
	}
	return e >> 1
}

// sampleColor is the procedural stand-in for texel data: a deterministic
// color derived from the texture id and texel address, so that the final
// image depends on real sampling positions (and is scheduler-invariant).
func sampleColor(texID int, addr uint64) geom.Vec3 {
	h := addr*0x9E3779B97F4A7C15 + uint64(texID)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return geom.V3(texel8[h&0xFF], texel8[(h>>8)&0xFF], texel8[(h>>16)&0xFF])
}

// unit8 maps a color channel byte i to float32(i)/255, the division
// unpackColor would otherwise repeat for every channel, and texel8 maps it
// to sampleColor's channel value 0.25 + 0.75·unit8[i].
var unit8, texel8 = func() (unit, texel [256]float32) {
	for i := range unit {
		unit[i] = float32(i) / 255
		texel[i] = 0.25 + 0.75*unit[i]
	}
	return unit, texel
}()

// blendPixel combines a shaded color with the Color Buffer contents.
func blendPixel(mode scene.BlendMode, dst uint32, src geom.Vec3) uint32 {
	switch mode {
	case scene.BlendOpaque:
		return packColor(src)
	case scene.BlendAdditive:
		d := unpackColor(dst)
		return packColor(geom.V3(
			geom.Clamp(d.X+src.X, 0, 1),
			geom.Clamp(d.Y+src.Y, 0, 1),
			geom.Clamp(d.Z+src.Z, 0, 1),
		))
	default: // BlendAlpha with the fixed source alpha of sprite content
		const alpha = 0.75
		d := unpackColor(dst)
		return packColor(geom.V3(
			src.X*alpha+d.X*(1-alpha),
			src.Y*alpha+d.Y*(1-alpha),
			src.Z*alpha+d.Z*(1-alpha),
		))
	}
}

func packColor(c geom.Vec3) uint32 {
	r := uint32(geom.Clamp(c.X, 0, 1) * 255)
	g := uint32(geom.Clamp(c.Y, 0, 1) * 255)
	b := uint32(geom.Clamp(c.Z, 0, 1) * 255)
	return 0xFF000000 | r<<16 | g<<8 | b
}

func unpackColor(p uint32) geom.Vec3 {
	return geom.V3(unit8[(p>>16)&0xFF], unit8[(p>>8)&0xFF], unit8[p&0xFF])
}
