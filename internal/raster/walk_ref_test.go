package raster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// refRenderTileInto is RenderTileInto over refRasterPrim: the renderer as
// it was before the span walk, the per-quad level entries, UV-only
// derivatives, the color tables, the inlined interpolation pieces, the
// one pass over a fragment's distinct samples and the direct packing of
// opaque fragments. Its texel addresses come from
// MipLevel.TexelAddr, which scene's TestTexelAddrMatchesReference holds to
// the old addressing. TestSpanWalkMatchesReference and FuzzSpanWalk hold
// the renderer to it.
func (r *Renderer) refRenderTileInto(w *TileWork, sc *scene.Scene, prims []gpipe.Primitive, refs []tiling.PrimRef, tileID int, fb *FrameBuffer) {
	rect := r.grid.TileRect(tileID)
	w.Reset(tileID)
	for i := range r.zbuf {
		r.zbuf[i] = math.MaxFloat32
		r.cbuf[i] = ClearColor
	}
	for _, ref := range refs {
		w.PBReads = append(w.PBReads, uint32(ref.Addr))
		p := &prims[ref.Prim]
		dc := &sc.DrawCalls[p.Draw]
		r.refRasterPrim(p, &dc.Material, rect, w)
		w.Primitives++
	}
	for y := rect.MinY; y <= rect.MaxY; y++ {
		for x := rect.MinX; x <= rect.MaxX; x++ {
			fb.Pixels[y*fb.W+x] = r.cbuf[r.local(x, y, rect)]
		}
	}
	w.FlushLines = fb.AppendTileFlushLines(w.FlushLines, r.grid, tileID)
}

// refTriangle is the triangle set-up that read the attributes through its
// vertices.
type refTriangle struct {
	triangle
	v [3]*geom.Vertex
}

// refInterp is the interpolation before it was split into pieces: depth, UV
// and color in one function, perspective weights included.
func (t *refTriangle) refInterp(ev12, ev20, ev01 float32) (z float32, uv geom.Vec2, col geom.Vec3, ok bool) {
	v0, v1, v2 := t.v[0], t.v[1], t.v[2]
	l0 := ev12 * t.invArea
	l1 := ev20 * t.invArea
	l2 := ev01 * t.invArea
	z = l0*v0.Pos.Z + l1*v1.Pos.Z + l2*v2.Pos.Z
	q0 := l0 * t.invW[0]
	q1 := l1 * t.invW[1]
	q2 := l2 * t.invW[2]
	den := q0 + q1 + q2
	if den == 0 {
		return 0, geom.Vec2{}, geom.Vec3{}, false
	}
	inv := 1 / den
	uv = geom.V2(
		(q0*v0.UV.X+q1*v1.UV.X+q2*v2.UV.X)*inv,
		(q0*v0.UV.Y+q1*v1.UV.Y+q2*v2.UV.Y)*inv,
	)
	col = geom.V3(
		(q0*v0.Color.X+q1*v1.Color.X+q2*v2.Color.X)*inv,
		(q0*v0.Color.Y+q1*v1.Color.Y+q2*v2.Color.Y)*inv,
		(q0*v0.Color.Z+q1*v1.Color.Z+q2*v2.Color.Z)*inv,
	)
	return z, uv, col, true
}

// refRasterPrim is rasterPrim walking every quad of the primitive's
// bounding box and testing every pixel center in it.
func (r *Renderer) refRasterPrim(p *gpipe.Primitive, mat *scene.Material, rect geom.Rect, w *TileWork) {
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
		v1, v2 = v2, v1
		area2 = -area2
	}
	b := p.ScreenBounds(r.grid.ScreenW, r.grid.ScreenH).Clip(rect)
	if b.Empty() {
		return
	}
	qx0, qy0 := b.MinX&^1, b.MinY&^1
	t := refTriangle{
		triangle: triangle{
			e12:     makeEdge(v1.Pos.X, v1.Pos.Y, v2.Pos.X, v2.Pos.Y),
			e20:     makeEdge(v2.Pos.X, v2.Pos.Y, v0.Pos.X, v0.Pos.Y),
			e01:     makeEdge(v0.Pos.X, v0.Pos.Y, v1.Pos.X, v1.Pos.Y),
			invArea: 1 / area2,
			invW:    [3]float32{1 / v0.Pos.W, 1 / v1.Pos.W, 1 / v2.Pos.W},
		},
		v: [3]*geom.Vertex{v0, v1, v2},
	}
	uvAt := func(px, py float32) (geom.Vec2, bool) {
		_, uv, _, ok := t.refInterp(t.e12.eval(px, py), t.e20.eval(px, py), t.e01.eval(px, py))
		return uv, ok
	}

	perFragInstr := mat.Program.InstructionsPerInvocation()
	nTex := mat.Program.TexSamples
	earlyZ := !mat.ForceLateZ
	nLevels := min(nTex, len(mat.Textures))
	levels := make([]int, nLevels)

	for qy := qy0; qy <= b.MaxY; qy += 2 {
		for qx := qx0; qx <= b.MaxX; qx += 2 {
			haveDeriv := false
			var quad QuadMeta
			texBefore := len(w.TexLines)
			for s := 0; s < 4; s++ {
				x := qx + (s & 1)
				y := qy + (s >> 1)
				if x < b.MinX || x > b.MaxX || y < b.MinY || y > b.MaxY {
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
				z, uv, col, ok := t.refInterp(ev12, ev20, ev01)
				if !ok {
					continue
				}
				li := r.local(x, y, rect)
				if earlyZ && z >= r.zbuf[li] {
					w.FragmentsKilled++
					continue
				}
				quad.Fragments++
				w.FragmentsShaded++
				quad.Instr += uint16(perFragInstr)

				var texel geom.Vec3
				if nLevels > 0 {
					if !haveDeriv {
						uvX, okX := uvAt(px+1, py)
						uvY, okY := uvAt(px, py+1)
						haveDeriv = okX && okY
						var duvx, duvy geom.Vec2
						if haveDeriv {
							duvx, duvy = uvX.Sub(uv), uvY.Sub(uv)
						}
						for i := range levels {
							tex := mat.Textures[i]
							levels[i] = mipLevel(duvx, duvy, tex.W, tex.H)
						}
					}
					quad.Samples += uint16(nTex)
					for s2 := 0; s2 < nTex; s2++ {
						i := s2 % len(mat.Textures)
						addr := r.refSampleFootprint(w, texBefore, mat.Textures[i], uv, levels[i])
						if s2 == 0 {
							texel = refSampleColor(mat.Textures[i].ID, addr)
						}
					}
				} else {
					texel = geom.V3(1, 1, 1)
				}
				if !earlyZ && z >= r.zbuf[li] {
					continue
				}
				if mat.DepthWrite {
					r.zbuf[li] = z
				}
				r.cbuf[li] = refBlendPixel(mat.Blend, r.cbuf[li], texel.Mul(col))
			}
			if quad.Fragments > 0 {
				quad.TexCount = uint16(len(w.TexLines) - texBefore)
				w.Quads = append(w.Quads, quad)
				w.Instructions += uint64(quad.Instr)
			}
		}
	}
}

// refSampleFootprint is sampleFootprint with the level resolved and the
// bilinear step divided out per sample.
func (r *Renderer) refSampleFootprint(w *TileWork, texBefore int, tex *scene.Texture, uv geom.Vec2, level int) uint64 {
	at := func(u, v float32, l int) uint64 { return tex.Level(l).TexelAddr(u, v) }
	base := at(uv.X, uv.Y, level)
	appendUniqueLine(&w.TexLines, texBefore, base&^63)
	if r.filter >= FilterBilinear {
		lw, lh := tex.LevelDims(tex.ClampLevel(level))
		du := 1 / float32(lw)
		dv := 1 / float32(lh)
		appendUniqueLine(&w.TexLines, texBefore, at(uv.X+du, uv.Y, level)&^63)
		appendUniqueLine(&w.TexLines, texBefore, at(uv.X, uv.Y+dv, level)&^63)
		appendUniqueLine(&w.TexLines, texBefore, at(uv.X+du, uv.Y+dv, level)&^63)
	}
	if r.filter == FilterTrilinear && level+1 < tex.Levels {
		appendUniqueLine(&w.TexLines, texBefore, at(uv.X, uv.Y, level+1)&^63)
	}
	return base
}

// refSampleColor and refUnpackColor divide by 255 where the renderer reads
// unit8.
func refSampleColor(texID int, addr uint64) geom.Vec3 {
	h := addr*0x9E3779B97F4A7C15 + uint64(texID)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	r := float32(h&0xFF) / 255
	g := float32((h>>8)&0xFF) / 255
	b := float32((h>>16)&0xFF) / 255
	return geom.V3(0.25+0.75*r, 0.25+0.75*g, 0.25+0.75*b)
}

func refUnpackColor(p uint32) geom.Vec3 {
	return geom.V3(
		float32((p>>16)&0xFF)/255,
		float32((p>>8)&0xFF)/255,
		float32(p&0xFF)/255,
	)
}

func refBlendPixel(mode scene.BlendMode, dst uint32, src geom.Vec3) uint32 {
	switch mode {
	case scene.BlendOpaque:
		return packColor(src)
	case scene.BlendAdditive:
		d := refUnpackColor(dst)
		return packColor(geom.V3(
			geom.Clamp(d.X+src.X, 0, 1),
			geom.Clamp(d.Y+src.Y, 0, 1),
			geom.Clamp(d.Z+src.Z, 0, 1),
		))
	default:
		const alpha = 0.75
		d := refUnpackColor(dst)
		return packColor(geom.V3(
			src.X*alpha+d.X*(1-alpha),
			src.Y*alpha+d.Y*(1-alpha),
			src.Z*alpha+d.Z*(1-alpha),
		))
	}
}

// TestUnit8Table checks every entry of the /255 table and of sampleColor's
// channel table against the arithmetic they replace, bit for bit.
func TestUnit8Table(t *testing.T) {
	for i := range unit8 {
		if got, want := math.Float32bits(unit8[i]), math.Float32bits(float32(i)/255); got != want {
			t.Errorf("unit8[%d] = %g, want %g", i, unit8[i], float32(i)/255)
		}
		c := float32(i) / 255
		if got, want := math.Float32bits(texel8[i]), math.Float32bits(0.25+0.75*c); got != want {
			t.Errorf("texel8[%d] = %g, want %g", i, texel8[i], 0.25+0.75*c)
		}
	}
	for addr := uint64(0); addr < 1<<20; addr += 4093 {
		for id := 0; id < 3; id++ {
			if got, want := sampleColor(id, addr), refSampleColor(id, addr); got != want {
				t.Fatalf("sampleColor(%d, %#x) = %v, want %v", id, addr, got, want)
			}
		}
	}
	for p := uint32(0); p < 1<<24; p += 0x010203 {
		if got, want := unpackColor(p), refUnpackColor(p); got != want {
			t.Fatalf("unpackColor(%#x) = %v, want %v", p, got, want)
		}
	}
}

// walkScene is the material set the walk comparisons draw with: every
// blend mode, Early-Z and late Z, depth writes on and off, untextured and
// single- and multi-textured programs over square, non-square and
// truncated-chain textures, and programs that take more samples than their
// material has textures, so a fragment repeats some of its samples: two
// over one texture, and three over two.
func walkScene() *scene.Scene {
	s := scene.NewScene()
	big := scene.NewTexture(1, 256, 256, 0x4000_0000, 0)
	wide := scene.NewTexture(2, 128, 16, 0x4100_0000, 0)
	short := scene.NewTexture(3, 64, 64, 0x4200_0000, 2)
	mats := []scene.Material{
		{Program: shader.Textured, Textures: []*scene.Texture{big}, Blend: scene.BlendOpaque, DepthWrite: true},
		{Program: shader.Flat, Blend: scene.BlendAlpha},
		{Program: shader.Multitexture, Textures: []*scene.Texture{wide, short}, Blend: scene.BlendAdditive, DepthWrite: true},
		{Program: shader.LitDetail, Textures: []*scene.Texture{short}, Blend: scene.BlendAlpha, ForceLateZ: true, DepthWrite: true},
		{Program: shader.Sprite, Textures: []*scene.Texture{wide}, Blend: scene.BlendOpaque, ForceLateZ: true},
		{Program: shader.Program{Name: "triple", ALUOps: 5, TexSamples: 3, Interpolants: 2},
			Textures: []*scene.Texture{big, wide}, Blend: scene.BlendOpaque, DepthWrite: true},
	}
	for _, m := range mats {
		s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: m})
	}
	return s
}

// walkGrid is a 3×2-tile screen whose right column of tiles is cut short,
// so primitives also meet a partial tile.
var walkGrid = tiling.NewGrid(80, 64)

// compareWalks renders every tile of walkGrid over prims with the renderer
// and with refRenderTileInto, under filter f, and fails on the first tile
// whose TileWork or pixels differ.
func compareWalks(t *testing.T, sc *scene.Scene, prims []gpipe.Primitive, f Filtering) {
	t.Helper()
	rf := refs(len(prims))
	fbGot := NewFrameBuffer(walkGrid.ScreenW, walkGrid.ScreenH)
	fbWant := NewFrameBuffer(walkGrid.ScreenW, walkGrid.ScreenH)
	got, want := NewRenderer(walkGrid), NewRenderer(walkGrid)
	got.SetFiltering(f)
	want.SetFiltering(f)
	var wg, ww TileWork
	for tile := 0; tile < walkGrid.NumTiles(); tile++ {
		got.RenderTileInto(&wg, sc, prims, rf, tile, fbGot)
		want.refRenderTileInto(&ww, sc, prims, rf, tile, fbWant)
		if g, w := wg.Clone(), ww.Clone(); !reflect.DeepEqual(g, w) {
			t.Fatalf("filter %d tile %d: span walk TileWork differs from the bounding-box walk\n got %+v\nwant %+v\nprims %+v",
				f, tile, g, w, prims)
		}
	}
	for i := range fbGot.Pixels {
		if fbGot.Pixels[i] != fbWant.Pixels[i] {
			t.Fatalf("filter %d pixel (%d,%d): %08x, want %08x\nprims %+v",
				f, i%fbGot.W, i/fbGot.W, fbGot.Pixels[i], fbWant.Pixels[i], prims)
		}
	}
}

// walkPrim builds a primitive of draw d with per-vertex depth, perspective
// w and UVs spread over several texture repeats.
func walkPrim(d int, xy [6]float32, z, w [3]float32, uv [6]float32) gpipe.Primitive {
	var p gpipe.Primitive
	p.Draw = d
	for i := range p.V {
		p.V[i] = geom.Vertex{
			Pos:   geom.Vec4{X: xy[2*i], Y: xy[2*i+1], Z: z[i], W: w[i]},
			UV:    geom.V2(uv[2*i], uv[2*i+1]),
			Color: geom.V3(0.2+0.3*float32(i), 0.9-0.2*float32(i), 0.5),
		}
	}
	return p
}

// TestSpanWalkMatchesReference renders random primitive sets with the span
// walk and the bounding-box walk and requires identical TileWork and tile
// pixels. The shapes cover slivers, near-horizontal and near-vertical
// edges, vertices on pixel centers and pixel corners, edges shared by two
// triangles, primitives off the tile and off the screen, and coordinates of
// ±1e6, under every filter.
func TestSpanWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := walkScene()
	coord := func(kind int, span float32) float32 {
		switch kind {
		case 0: // anywhere near the screen
			return rng.Float32()*(span+40) - 20
		case 1: // on a pixel center
			return float32(rng.Intn(int(span))) + 0.5
		case 2: // on a pixel corner
			return float32(rng.Intn(int(span)))
		default: // far off screen
			return (rng.Float32()*2 - 1) * 1e6
		}
	}
	n := 400
	if testing.Short() {
		n = 60
	}
	for iter := 0; iter < n; iter++ {
		var prims []gpipe.Primitive
		for len(prims) < 6 {
			var xy [6]float32
			for i := range xy {
				kind := rng.Intn(4)
				if kind == 3 && rng.Intn(4) != 0 {
					kind = 0
				}
				xy[i] = coord(kind, [2]float32{80, 64}[i%2])
			}
			switch rng.Intn(6) {
			case 0: // sliver: the third vertex next to the first edge
				f := rng.Float32()
				xy[4] = xy[0] + f*(xy[2]-xy[0]) + rng.Float32()*0.01
				xy[5] = xy[1] + f*(xy[3]-xy[1]) + rng.Float32()*0.01
			case 1: // near-horizontal edge
				xy[3] = xy[1] + (rng.Float32()-0.5)*0.02
			case 2: // near-vertical edge
				xy[2] = xy[0] + (rng.Float32()-0.5)*0.02
			}
			var z, w [3]float32
			var uv [6]float32
			for i := range z {
				z[i] = rng.Float32()
				w[i] = 0.25 + 2*rng.Float32()
			}
			for i := range uv {
				uv[i] = (rng.Float32()*2 - 1) * 4
			}
			d := rng.Intn(len(sc.DrawCalls))
			prims = append(prims, walkPrim(d, xy, z, w, uv))
			if rng.Intn(3) == 0 {
				// A second triangle on the other side of the first's
				// edge 0→1: the edge is shared.
				opp := [6]float32{xy[2], xy[3], xy[0], xy[1], coord(0, 80), coord(0, 64)}
				prims = append(prims, walkPrim(rng.Intn(len(sc.DrawCalls)), opp, z, w, uv))
			}
		}
		for i := range prims {
			prims[i].Seq = i
		}
		compareWalks(t, sc, prims, Filtering(iter%3))
	}
}

// checkRowSpans compares rowSpan with a test of every pixel center on each
// row of the box [0, maxX]×[0, maxY], for the triangle with vertices a, b
// and c in that order: the covered centers of a row must form one run, and
// rowSpan must return exactly its first and last column, or an empty span
// when the row has none.
func checkRowSpans(t *testing.T, a, b, c geom.Vec2, maxX, maxY int) {
	t.Helper()
	tr := triangle{
		e12: makeEdge(b.X, b.Y, c.X, c.Y),
		e20: makeEdge(c.X, c.Y, a.X, a.Y),
		e01: makeEdge(a.X, a.Y, b.X, b.Y),
	}
	for y := 0; y <= maxY; y++ {
		py := float32(y) + 0.5
		first, last, runs := 0, -1, 0
		for x := 0; x <= maxX; x++ {
			if tr.e12.covers(x, py) && tr.e20.covers(x, py) && tr.e01.covers(x, py) {
				if x == 0 || last != x-1 {
					first, runs = x, runs+1
				}
				last = x
			}
		}
		if runs > 1 {
			t.Fatalf("triangle %v %v %v row %d: covered centers form %d runs", a, b, c, y, runs)
		}
		lo, hi := tr.rowSpan(py, 0, maxX)
		if runs == 0 {
			if lo <= hi {
				t.Fatalf("triangle %v %v %v row %d: span [%d, %d], want empty", a, b, c, y, lo, hi)
			}
			continue
		}
		if lo != first || hi != last {
			t.Fatalf("triangle %v %v %v row %d: span [%d, %d], want [%d, %d]", a, b, c, y, lo, hi, first, last)
		}
	}
}

// TestRowSpanIsExact checks that rowSpan is exact, not merely conservative,
// on random triangles of both orientations: a span one column too wide
// would render the same pixels, so the walk comparisons cannot see it.
func TestRowSpanIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float32{0, 0.5, 31.5, 32, 63.99, -1e6, 1e6,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	coord := func() float32 {
		switch rng.Intn(8) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return float32(rng.Intn(64)) + 0.5
		case 2:
			return float32(rng.Intn(64))
		default:
			return rng.Float32()*80 - 8
		}
	}
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		a, b, c := geom.V2(coord(), coord()), geom.V2(coord(), coord()), geom.V2(coord(), coord())
		if rng.Intn(3) == 0 {
			c.X = a.X + (b.X-a.X)*rng.Float32() // a sliver
			c.Y = a.Y + (b.Y-a.Y)*rng.Float32() + 0.01*rng.Float32()
		}
		checkRowSpans(t, a, b, c, 63, 63)
		checkRowSpans(t, a, c, b, 63, 63)
	}
}

// FuzzSpanWalk renders one or two fuzzed triangles with the span walk and
// the bounding-box walk and requires identical TileWork and pixels: for any
// coordinates, NaN and infinities included, the span walk visits exactly the
// pixel centers the full walk covers, and stays inside the bounding box.
func FuzzSpanWalk(f *testing.F) {
	f.Add(float32(0), float32(0), float32(60), float32(8), float32(8), float32(60), float32(0.5), float32(1), uint8(0))
	f.Add(float32(0.5), float32(0.5), float32(40.5), float32(0.5), float32(0.5), float32(30.5), float32(0.3), float32(2), uint8(7))
	f.Add(float32(-1e6), float32(5), float32(1e6), float32(6), float32(30), float32(1e6), float32(0.1), float32(0.5), uint8(13))
	f.Add(float32(10), float32(3), float32(70), float32(3.001), float32(40), float32(3.002), float32(0.9), float32(1), uint8(22))
	f.Add(float32(17), float32(-4), float32(17.003), float32(70), float32(16.99), float32(30), float32(0.7), float32(1), uint8(36))
	f.Add(float32(math.NaN()), float32(5), float32(40), float32(6), float32(30), float32(50), float32(0.5), float32(1), uint8(44))
	f.Add(float32(math.Inf(1)), float32(5), float32(40), float32(6), float32(30), float32(math.Inf(-1)), float32(0.5), float32(1), uint8(58))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, z, w float32, mode uint8) {
		sc := walkScene()
		xy := [6]float32{ax, ay, bx, by, cx, cy}
		zs := [3]float32{z, z * 0.5, z * 0.25}
		ws := [3]float32{1, w, 1 / (w*w + 1)}
		uv := [6]float32{0, 0, 3 * w, 0.5, -1, 2 * z}
		d := int(mode) % len(sc.DrawCalls)
		prims := []gpipe.Primitive{walkPrim(d, xy, zs, ws, uv)}
		if mode&0x40 != 0 {
			// A second triangle sharing the edge a→b.
			opp := [6]float32{bx, by, ax, ay, cx + 20, cy - 20}
			prims = append(prims, walkPrim((d+1)%len(sc.DrawCalls), opp, zs, ws, uv))
			prims[1].Seq = 1
		}
		compareWalks(t, sc, prims, Filtering(mode>>3%3))
		a, b, c := geom.V2(ax, ay), geom.V2(bx, by), geom.V2(cx, cy)
		checkRowSpans(t, a, b, c, walkGrid.ScreenW-1, walkGrid.ScreenH-1)
		checkRowSpans(t, a, c, b, walkGrid.ScreenW-1, walkGrid.ScreenH-1)
	})
}
