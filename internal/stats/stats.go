// Package stats provides the measurement plumbing of the simulator: per-tile
// counter tables (the temperature inputs of §III-B), interval histograms of
// DRAM requests (Fig. 7), screen-space heatmaps (Figs. 2 and 9), and the
// latency distribution of the load generator.
package stats

import (
	"fmt"
	"strings"
)

// TileTable records, for every tile of a frame, the counters LIBRA's
// temperature scheduler consumes: DRAM accesses and executed instructions.
type TileTable struct {
	W, H         int
	DRAMAccesses []uint32
	Instructions []uint64
}

// NewTileTable builds a zeroed table for a w×h tile grid.
func NewTileTable(w, h int) *TileTable {
	return &TileTable{
		W:            w,
		H:            h,
		DRAMAccesses: make([]uint32, w*h),
		Instructions: make([]uint64, w*h),
	}
}

// Index returns the flat index of tile (x, y).
func (t *TileTable) Index(x, y int) int { return y*t.W + x }

// AddDRAM adds n DRAM accesses to tile id.
func (t *TileTable) AddDRAM(id, n int) { t.DRAMAccesses[id] += uint32(n) }

// AddInstructions adds n instructions to tile id.
func (t *TileTable) AddInstructions(id int, n uint64) { t.Instructions[id] += n }

// Reset zeroes all counters.
func (t *TileTable) Reset() {
	for i := range t.DRAMAccesses {
		t.DRAMAccesses[i] = 0
		t.Instructions[i] = 0
	}
}

// Clone returns a deep copy (used to keep the previous frame's statistics).
func (t *TileTable) Clone() *TileTable {
	c := NewTileTable(t.W, t.H)
	copy(c.DRAMAccesses, t.DRAMAccesses)
	copy(c.Instructions, t.Instructions)
	return c
}

// TotalDRAM returns the sum of DRAM accesses over all tiles.
func (t *TileTable) TotalDRAM() uint64 {
	var s uint64
	for _, v := range t.DRAMAccesses {
		s += uint64(v)
	}
	return s
}

// IntervalHistogram counts events in fixed-width windows of simulated time,
// reproducing the "DRAM requests per 5000-cycle interval" view of Fig. 7.
type IntervalHistogram struct {
	Width  int64
	Counts []uint32
}

// NewIntervalHistogram creates a histogram with the given window width in
// cycles. Width must be positive.
func NewIntervalHistogram(width int64) *IntervalHistogram {
	if width <= 0 {
		panic(fmt.Sprintf("stats: interval width %d must be positive", width))
	}
	return &IntervalHistogram{Width: width}
}

// Record adds one event at the given cycle.
func (h *IntervalHistogram) Record(cycle int64) {
	if cycle < 0 {
		cycle = 0
	}
	idx := int(cycle / h.Width)
	for len(h.Counts) <= idx {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[idx]++
}

// Heatmap is a dense 2D grid of per-tile values with rendering helpers.
type Heatmap struct {
	W, H   int
	Values []float64
}

// NewHeatmap creates a zeroed w×h heatmap.
func NewHeatmap(w, h int) *Heatmap {
	return &Heatmap{W: w, H: h, Values: make([]float64, w*h)}
}

// Set assigns value v at tile (x, y).
func (m *Heatmap) Set(x, y int, v float64) { m.Values[y*m.W+x] = v }

// At returns the value at tile (x, y).
func (m *Heatmap) At(x, y int) float64 { return m.Values[y*m.W+x] }

// Max returns the largest value in the map.
func (m *Heatmap) Max() float64 {
	max := 0.0
	for _, v := range m.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// ASCII renders the heatmap with one character per tile, from '.' (cold) to
// '@' (hot), suitable for terminal inspection of Figs. 2 and 9.
func (m *Heatmap) ASCII() string {
	const ramp = ".:-=+*#%@"
	max := m.Max()
	var b strings.Builder
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if max == 0 {
				b.WriteByte(ramp[0])
				continue
			}
			level := int(m.At(x, y) / max * float64(len(ramp)-1))
			if level >= len(ramp) {
				level = len(ramp) - 1
			}
			b.WriteByte(ramp[level])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PGM renders the heatmap as a binary-free ASCII PGM (P2) image, one pixel
// per tile, for external visualization.
func (m *Heatmap) PGM() string {
	max := m.Max()
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v := 0
			if max > 0 {
				v = int(m.At(x, y) / max * 255)
			}
			if x > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Downsample aggregates the heatmap at supertile granularity (factor×factor
// tiles per cell, summed), used for the supertile view of Fig. 9.
func (m *Heatmap) Downsample(factor int) *Heatmap {
	if factor <= 0 {
		panic("stats: downsample factor must be positive")
	}
	w := (m.W + factor - 1) / factor
	h := (m.H + factor - 1) / factor
	out := NewHeatmap(w, h)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			out.Values[(y/factor)*w+(x/factor)] += m.At(x, y)
		}
	}
	return out
}
