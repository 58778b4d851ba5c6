package sched

import "repro/internal/tiling"

// PFR implements Parallel Frame Rendering (Arnau et al., PACT 2013 — the
// paper's related work [9]): instead of splitting one frame's tiles across
// Raster Units, each RU renders a *whole consecutive frame*, trading
// responsiveness for inter-frame texture locality. Every RU walks its own
// frame's full tile list in Z-order.
type PFR struct {
	queues [][]int
}

// NewPFR builds a PFR scheduler: each of numRUs Raster Units traverses the
// complete grid in Z-order (its own frame's tiles). RU i's ids are offset by
// i·NumTiles, so they index frame i in a tile-work slice that holds the
// frames one after another.
func NewPFR(grid tiling.Grid, numRUs int) *PFR {
	base := grid.Traversal()
	queues := make([][]int, numRUs)
	for i := range queues {
		q := make([]int, len(base))
		for k, t := range base {
			q[k] = i*grid.NumTiles() + t
		}
		queues[i] = q
	}
	return &PFR{queues: queues}
}

// NextTile implements Scheduler.
func (p *PFR) NextTile(ru int) int {
	if len(p.queues[ru]) == 0 {
		return -1
	}
	t := p.queues[ru][0]
	p.queues[ru] = p.queues[ru][1:]
	return t
}

// Name implements Scheduler.
func (p *PFR) Name() string { return "pfr" }
