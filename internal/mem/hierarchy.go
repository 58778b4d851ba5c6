// Package mem wires the simulated GPU memory system together: the private L1
// caches (Vertex, Tile, per-core Texture) in front of a shared L2, backed by
// the timed DRAM model. It also defines the simulated physical address space
// that the pipelines generate traffic into.
package mem

import (
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/telemetry"
)

// Simulated address-space layout. Each traffic source gets a disjoint region
// so DRAM row/bank behaviour and cache conflicts are realistic.
const (
	GeometryBase uint64 = 0x1000_0000 // vertex/index buffers
	ParamBase    uint64 = 0x2000_0000 // Parameter Buffer (per-tile primitive lists)
	TextureBase  uint64 = 0x4000_0000 // texture images
	FrameBase    uint64 = 0x8000_0000 // Frame Buffer (final colors)

	// AddrLimit bounds the address space: every region is laid out below
	// it, so a 32-bit record (raster.TileWork's streams) holds any address
	// exactly. The texture allocator keeps textures below FrameBase, the
	// binner keeps the Parameter Buffer below AddrLimit, and the largest
	// frame buffer libra.Config allows ends at 0xC000_0000.
	AddrLimit uint64 = 1 << 32
)

// Level identifies where an access was served.
type Level int

// Service levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelDRAM
)

// AccessResult reports the timing and depth of one memory access.
type AccessResult struct {
	Latency      int64 // total observed latency in cycles
	Level        Level // deepest level touched
	DRAMAccesses int   // DRAM requests caused (fill + any dirty writeback)
}

// Hierarchy is the shared part of the memory system: one L2 and one DRAM.
// L1 caches are owned by their units and passed per access.
type Hierarchy struct {
	L2   *cache.Cache
	DRAM *dram.DRAM

	// IdealL1 makes every L1 access hit (used to measure the memory-time
	// fraction of Fig. 6a by differencing against a real run).
	IdealL1 bool

	// PrefetchNextLine enables a next-line prefetcher in front of the L1s:
	// every L1 demand miss also pulls the following line into the L1
	// (the classic texture-cache prefetch of Igehy et al., evaluated here
	// as an extension ablation). Prefetches do not delay the demand access.
	PrefetchNextLine bool

	// Rec, when non-nil, receives every demand L1/L2 lookup — the input of
	// the observability layer's hit-rate time series. The nil check keeps
	// the disabled hot path branch-only.
	Rec telemetry.Recorder
}

// NewHierarchy builds a hierarchy with the given shared-L2 configuration and
// DRAM configuration.
func NewHierarchy(l2cfg cache.Config, dcfg dram.Config) *Hierarchy {
	return &Hierarchy{
		L2:   cache.New(l2cfg),
		DRAM: dram.New(dcfg),
	}
}

// AccessThroughL1 performs a timed access to addr through the given L1 cache
// at cycle now. On an L1 miss the access proceeds to the shared L2 and, on an
// L2 miss, to DRAM; dirty victims at L2 are written back to DRAM. The
// returned latency is the full round trip as observed by the requester.
//
//libra:hotpath
func (h *Hierarchy) AccessThroughL1(l1 *cache.Cache, now int64, addr uint64, write bool) AccessResult {
	l1lat := l1.HitLatency()
	if h.IdealL1 {
		// Still touch the cache functionally so downstream hit ratios stay
		// comparable, but serve everything at L1 latency.
		l1.Access(addr, write)
		if h.Rec != nil {
			h.Rec.CacheAccess(telemetry.CacheL1, now, true)
		}
		return AccessResult{Latency: l1lat, Level: LevelL1}
	}
	r1 := l1.Access(addr, write)
	if h.Rec != nil {
		h.Rec.CacheAccess(telemetry.CacheL1, now, r1.Hit)
	}
	var res AccessResult
	if r1.Hit {
		res = AccessResult{Latency: l1lat, Level: LevelL1}
	} else {
		res = h.AccessL2(now+l1lat, addr, write)
		// An L1 dirty victim is written back into L2 (timing folded into
		// the miss; the functional state matters for L2 contents).
		if r1.Evicted && r1.Dirty {
			wb := h.AccessL2(now+l1lat, r1.Victim, true)
			res.DRAMAccesses += wb.DRAMAccesses
		}
		res.Latency += l1lat
	}
	// Tagged next-line prefetch: fires on both hits and misses so streams
	// stay ahead of the demand accesses; never delays the requester.
	if h.PrefetchNextLine {
		next := l1.LineAddr(addr) + uint64(l1.Config().LineBytes)
		if !l1.Contains(next) {
			rp := l1.Install(next) // allocate without polluting demand stats
			pf := h.AccessL2(now+l1lat, next, false)
			res.DRAMAccesses += pf.DRAMAccesses
			if rp.Evicted && rp.Dirty {
				wb := h.AccessL2(now+l1lat, rp.Victim, true)
				res.DRAMAccesses += wb.DRAMAccesses
			}
		}
	}
	return res
}

// ReadHitMRU takes a read of addr through l1 and reports true when it hits
// its set's most recently used line (cache.HitMRU): an L1 hit of l1's hit
// latency with no DRAM traffic, as AccessThroughL1(l1, now, addr, false)
// would return and leave it. Otherwise, and whenever a recorder or the
// next-line prefetcher is on (both act on every L1 access, hits included),
// it changes nothing and reports false, and the caller calls
// AccessThroughL1. Under IdealL1 every access is an L1-latency hit, so an
// MRU hit is one either way. It inlines, so the hit costs no call.
func (h *Hierarchy) ReadHitMRU(l1 *cache.Cache, addr uint64) bool {
	return h.Rec == nil && !h.PrefetchNextLine && l1.HitMRU(addr)
}

// AccessL2 performs a timed access that starts at the shared L2 (used for
// units without an L1, e.g. color-buffer flush traffic).
func (h *Hierarchy) AccessL2(now int64, addr uint64, write bool) AccessResult {
	l2lat := h.L2.HitLatency()
	r2 := h.L2.Access(addr, write)
	if h.Rec != nil {
		h.Rec.CacheAccess(telemetry.CacheL2, now, r2.Hit)
	}
	if r2.Hit {
		return AccessResult{Latency: l2lat, Level: LevelL2}
	}
	res := AccessResult{Level: LevelDRAM}
	if write {
		// Write-validate: streaming full-line writes (Color Buffer flush,
		// Parameter Buffer stores) allocate without a DRAM fill read; the
		// data reaches DRAM later as a dirty writeback.
		res.Latency = l2lat
	} else {
		done := h.DRAM.Access(now+l2lat, addr, false)
		res.DRAMAccesses = 1
		res.Latency = done - now
		if res.Latency < l2lat {
			res.Latency = l2lat
		}
	}
	if r2.Evicted && r2.Dirty {
		// Dirty L2 victim goes to DRAM; it does not delay the requester
		// (write buffer) but consumes bandwidth and counts as an access.
		h.DRAM.Access(now+l2lat, r2.Victim, true)
		res.DRAMAccesses++
	}
	return res
}

// WriteDRAM issues a non-cached write directly to main memory — the Color
// Buffer flush path (§II-C: the Color Buffer transfers its content straight
// to main memory, bypassing the cache hierarchy).
func (h *Hierarchy) WriteDRAM(now int64, addr uint64) AccessResult {
	if h.IdealL1 {
		return AccessResult{Latency: 1, Level: LevelL1}
	}
	done := h.DRAM.Access(now, addr, true)
	return AccessResult{Latency: done - now, Level: LevelDRAM, DRAMAccesses: 1}
}

// ResetStats clears L2 and DRAM statistics (cache contents are preserved, as
// between frames on real hardware).
func (h *Hierarchy) ResetStats() {
	h.L2.ResetStats()
	h.DRAM.ResetStats()
}
