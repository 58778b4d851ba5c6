package tiling

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// TileSize is the tile edge in pixels (Table I: 32×32).
const TileSize = 32

// Grid maps the screen onto the tile grid.
type Grid struct {
	ScreenW, ScreenH int
	TilesX, TilesY   int
}

// NewGrid builds the tile grid covering a screen; partial edge tiles are
// included (clamped at raster time).
func NewGrid(screenW, screenH int) Grid {
	if screenW <= 0 || screenH <= 0 {
		panic(fmt.Sprintf("tiling: invalid screen %dx%d", screenW, screenH))
	}
	return Grid{
		ScreenW: screenW,
		ScreenH: screenH,
		TilesX:  (screenW + TileSize - 1) / TileSize,
		TilesY:  (screenH + TileSize - 1) / TileSize,
	}
}

// NumTiles returns the tile count of the grid.
func (g Grid) NumTiles() int { return g.TilesX * g.TilesY }

// TileID returns the flat id of tile (tx, ty).
func (g Grid) TileID(tx, ty int) int { return ty*g.TilesX + tx }

// TileCoord returns the (tx, ty) position of a tile id.
func (g Grid) TileCoord(id int) (tx, ty int) { return id % g.TilesX, id / g.TilesX }

// TileRect returns the pixel rectangle of a tile, clamped to the screen.
func (g Grid) TileRect(id int) geom.Rect {
	tx, ty := g.TileCoord(id)
	r := geom.Rect{
		MinX: tx * TileSize,
		MinY: ty * TileSize,
		MaxX: tx*TileSize + TileSize - 1,
		MaxY: ty*TileSize + TileSize - 1,
	}
	return r.Clip(geom.Rect{MinX: 0, MinY: 0, MaxX: g.ScreenW - 1, MaxY: g.ScreenH - 1})
}

// TilesCovering returns the inclusive tile-coordinate range overlapped by a
// pixel rectangle (already clamped to the screen).
func (g Grid) TilesCovering(r geom.Rect) (tx0, ty0, tx1, ty1 int) {
	return r.MinX / TileSize, r.MinY / TileSize, r.MaxX / TileSize, r.MaxY / TileSize
}

// Traversal returns the tile ids of the grid in Z-order, the baseline
// traversal of this work (§II-B). Every tile appears exactly once.
func (g Grid) Traversal() []int {
	ids := make([]int, g.NumTiles())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ax, ay := g.TileCoord(ids[a])
		bx, by := g.TileCoord(ids[b])
		return MortonEncode(uint32(ax), uint32(ay)) < MortonEncode(uint32(bx), uint32(by))
	})
	return ids
}

// SupertileGrid groups k×k tiles into supertiles (§III-C).
type SupertileGrid struct {
	Grid
	K                int // supertile edge in tiles (2, 4, 8 or 16)
	SupersX, SupersY int
}

// ValidSupertileSizes are the sizes LIBRA considers (§III-C).
var ValidSupertileSizes = []int{2, 4, 8, 16}

// NewSupertileGrid overlays a supertile grid of edge k on the tile grid.
func NewSupertileGrid(g Grid, k int) SupertileGrid {
	ok := false
	for _, v := range ValidSupertileSizes {
		if v == k {
			ok = true
		}
	}
	if !ok {
		panic(fmt.Sprintf("tiling: invalid supertile size %d", k))
	}
	return SupertileGrid{
		Grid:    g,
		K:       k,
		SupersX: (g.TilesX + k - 1) / k,
		SupersY: (g.TilesY + k - 1) / k,
	}
}

// NumSupertiles returns the supertile count.
func (s SupertileGrid) NumSupertiles() int { return s.SupersX * s.SupersY }

// SupertileOf returns the supertile id containing tile id.
func (s SupertileGrid) SupertileOf(tileID int) int {
	tx, ty := s.TileCoord(tileID)
	return (ty/s.K)*s.SupersX + tx/s.K
}

// TilesOf returns the tile ids of a supertile, traversed in Z-order within
// the supertile (§III-D: "tiles within a supertile are always traversed in
// Z-order"). Edge supertiles may hold fewer than K×K tiles.
func (s SupertileGrid) TilesOf(superID int) []int {
	sx := superID % s.SupersX
	sy := superID / s.SupersX
	var tiles []int
	for dy := 0; dy < s.K; dy++ {
		for dx := 0; dx < s.K; dx++ {
			tx := sx*s.K + dx
			ty := sy*s.K + dy
			if tx < s.TilesX && ty < s.TilesY {
				tiles = append(tiles, s.TileID(tx, ty))
			}
		}
	}
	sort.Slice(tiles, func(a, b int) bool {
		ax, ay := s.TileCoord(tiles[a])
		bx, by := s.TileCoord(tiles[b])
		return MortonEncode(uint32(ax%s.K), uint32(ay%s.K)) < MortonEncode(uint32(bx%s.K), uint32(by%s.K))
	})
	return tiles
}

// SupertileTraversal returns supertile ids in Z-order over the supertile
// grid (the default order before temperature ranking).
func (s SupertileGrid) SupertileTraversal() []int {
	ids := make([]int, s.NumSupertiles())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ax, ay := uint32(ids[a]%s.SupersX), uint32(ids[a]/s.SupersX)
		bx, by := uint32(ids[b]%s.SupersX), uint32(ids[b]/s.SupersX)
		return MortonEncode(ax, ay) < MortonEncode(bx, by)
	})
	return ids
}
