// Package sched implements LIBRA's contribution: the tile schedulers that
// decide which Raster Unit renders which tile, in which order (§III).
//
// Four scheduling policies are provided:
//
//   - SingleQueue: all RUs pop one shared Z-order tile queue. With one RU
//     this is the conventional TBR baseline; with several it is the basic
//     parallel-tile-rendering (PTR) interleaved dispatch of §III-A.
//   - SupertileQueue: like SingleQueue but at supertile granularity with
//     Z-order inside each supertile — the "static supertiles" of Fig. 16.
//   - Temperature: supertiles ranked hottest→coldest from the previous
//     frame's statistics; RU 0 consumes from the hot end, all other RUs
//     from the cold end (§III-B/§V-D).
//   - The adaptive per-frame controller (adaptive.go) picks between Z-order
//     and temperature order and resizes supertiles (§III-D).
package sched

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/tiling"
)

// Scheduler hands out tiles to Raster Units during one frame.
type Scheduler interface {
	// NextTile returns the next tile id for the given RU, or -1 when no
	// work remains. All primitives of a tile go to the RU that receives it.
	NextTile(ru int) int
	// Name identifies the policy in reports.
	Name() string
}

// SingleQueue dispatches tiles from one shared queue — first-come
// first-served across RUs, preserving the given traversal order.
type SingleQueue struct {
	order []int
	next  int
	name  string
}

// NewSingleQueue builds the conventional scheduler over a tile traversal.
func NewSingleQueue(order []int, name string) *SingleQueue {
	return &SingleQueue{order: order, name: name}
}

// NewZOrderQueue is the baseline: all tiles in Morton order.
func NewZOrderQueue(grid tiling.Grid) *SingleQueue {
	return NewSingleQueue(grid.Traversal(), "zorder")
}

// NextTile implements Scheduler.
func (s *SingleQueue) NextTile(int) int {
	if s.next >= len(s.order) {
		return -1
	}
	t := s.order[s.next]
	s.next++
	return t
}

// Name implements Scheduler.
func (s *SingleQueue) Name() string { return s.name }

// SupertileQueue dispatches whole supertiles from a shared queue; each RU
// renders its supertile's tiles in Z-order before taking the next one. This
// preserves texture locality within an RU while keeping RUs in distant frame
// areas (§III-C).
type SupertileQueue struct {
	super   tiling.SupertileGrid
	queue   []int // supertile ids in dispatch order
	next    int
	pending [][]int // per-RU remaining tiles of the current supertile
	name    string
}

// NewSupertileQueue builds a supertile scheduler over the given dispatch
// order of supertile ids.
func NewSupertileQueue(super tiling.SupertileGrid, order []int, numRUs int, name string) *SupertileQueue {
	return &SupertileQueue{
		super:   super,
		queue:   order,
		pending: make([][]int, numRUs),
		name:    name,
	}
}

// NewStaticSupertileQueue dispatches supertiles in Z-order (Fig. 16's static
// supertile configurations).
func NewStaticSupertileQueue(super tiling.SupertileGrid, numRUs int) *SupertileQueue {
	return NewSupertileQueue(super, super.SupertileTraversal(), numRUs, "supertile-z")
}

// NextTile implements Scheduler.
func (s *SupertileQueue) NextTile(ru int) int {
	if len(s.pending[ru]) == 0 {
		if s.next >= len(s.queue) {
			return -1
		}
		s.pending[ru] = s.super.TilesOf(s.queue[s.next])
		s.next++
	}
	t := s.pending[ru][0]
	s.pending[ru] = s.pending[ru][1:]
	return t
}

// Name implements Scheduler.
func (s *SupertileQueue) Name() string { return s.name }

// RankSupertiles orders supertile ids from hottest to coldest using the
// previous frame's per-tile statistics aggregated at supertile granularity
// (§III-D: "the per-tile memory accesses and instruction count metrics of
// the previous frame are first aggregated at the chosen supertile
// granularity"). Temperature is DRAM accesses per instruction; ties break by
// absolute DRAM accesses then id, keeping the rank deterministic.
func RankSupertiles(super tiling.SupertileGrid, prev *stats.TileTable) []int {
	n := super.NumSupertiles()
	dram := make([]uint64, n)
	instr := make([]uint64, n)
	for tid := 0; tid < super.NumTiles(); tid++ {
		sid := super.SupertileOf(tid)
		dram[sid] += uint64(prev.DRAMAccesses[tid])
		instr[sid] += prev.Instructions[tid]
	}
	ids := make([]int, n)
	temp := make([]float64, n)
	for i := range ids {
		ids[i] = i
		if instr[i] > 0 {
			temp[i] = float64(dram[i]) / float64(instr[i])
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		ia, ib := ids[a], ids[b]
		// Strict > in both directions rather than a != tie-break test: same
		// ordering, no float-equality comparison (detlint).
		if temp[ia] > temp[ib] {
			return true
		}
		if temp[ib] > temp[ia] {
			return false
		}
		if dram[ia] != dram[ib] {
			return dram[ia] > dram[ib]
		}
		return ia < ib
	})
	return ids
}

// Temperature is LIBRA's hot/cold scheduler: RU 0 consumes supertiles from
// the hot end of the ranking; every other RU consumes from the cold end
// (§V-D: "LIBRA allocates one Raster Unit to process hot tiles, while the
// rest are dedicated to the cold ones").
type Temperature struct {
	super   tiling.SupertileGrid
	ranked  []int
	lo, hi  int // half-open window of unconsumed supertiles [lo, hi)
	pending [][]int
}

// NewTemperature builds the hot/cold scheduler from a hottest-first ranking.
func NewTemperature(super tiling.SupertileGrid, ranked []int, numRUs int) *Temperature {
	return &Temperature{
		super:   super,
		ranked:  ranked,
		lo:      0,
		hi:      len(ranked),
		pending: make([][]int, numRUs),
	}
}

// NextTile implements Scheduler.
func (t *Temperature) NextTile(ru int) int {
	if len(t.pending[ru]) == 0 {
		if t.lo >= t.hi {
			return -1
		}
		var sid int
		if ru == 0 {
			sid = t.ranked[t.lo] // hot end
			t.lo++
		} else {
			t.hi-- // cold end
			sid = t.ranked[t.hi]
		}
		t.pending[ru] = t.super.TilesOf(sid)
	}
	tile := t.pending[ru][0]
	t.pending[ru] = t.pending[ru][1:]
	return tile
}

// Name implements Scheduler.
func (t *Temperature) Name() string { return "temperature" }
