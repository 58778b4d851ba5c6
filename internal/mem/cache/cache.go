// Package cache implements the set-associative, write-back, write-allocate
// caches of the simulated TBR GPU: the Vertex cache and Tile cache of the
// tiling engine, the per-shader-core L1 Texture caches, and the shared L2.
//
// The model is functional (it tracks real line residency, so locality effects
// of tile scheduling show up as hit-ratio changes) with a fixed per-level hit
// latency; miss latencies are composed by the memory hierarchy that owns the
// cache.
package cache

import "fmt"

// Config describes a cache's geometry.
type Config struct {
	Name       string // for diagnostics ("tex0", "L2", ...)
	SizeBytes  int    // total capacity
	LineBytes  int    // line size (power of two)
	Ways       int    // associativity
	HitLatency int64  // access latency in GPU cycles
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d", c.Name, c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events since the last reset.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRatio returns hits/accesses, or 0 for an untouched cache.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a single set-associative cache level. Each set keeps its valid
// lines in recency order, most recently used first: a hit moves its line to
// the front, a fill enters at the front, and a full set evicts its last line.
// That is exact LRU with no per-line timestamps and no victim scan.
type Cache struct {
	cfg Config
	// tags and dirty are numSets*ways, set-major; set s's valid lines are
	// the first valid[s] slots of its row.
	tags      []uint64
	dirty     []bool
	valid     []int
	lineShift uint
	setMask   uint64
	stats     Stats
}

// New builds a cache from cfg. It panics on an invalid configuration, which
// is a programming error in the simulator setup, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		tags:      make([]uint64, numSets*cfg.Ways),
		dirty:     make([]bool, numSets*cfg.Ways),
		valid:     make([]int, numSets),
		lineShift: shift,
		setMask:   uint64(numSets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the access latency of a hit, Config().HitLatency
// without copying the Config.
func (c *Cache) HitLatency() int64 { return c.cfg.HitLatency }

// Stats returns the event counters accumulated since the last ResetStats.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the event counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Result describes the outcome of a cache access.
type Result struct {
	Hit     bool
	Evicted bool   // a valid line was displaced
	Victim  uint64 // line address of the displaced line (when Evicted)
	Dirty   bool   // the displaced line was dirty and must be written back
}

// lookup returns the tag of addr, its set, and the recency rank of its line
// in the set (0 = most recently used), or -1 when the line is not resident.
func (c *Cache) lookup(addr uint64) (tag uint64, set, rank int) {
	tag = addr >> c.lineShift
	set = int(tag & c.setMask)
	base := set * c.cfg.Ways
	for i, t := range c.tags[base : base+c.valid[set]] {
		if t == tag {
			return tag, set, i
		}
	}
	return tag, set, -1
}

// promote moves the line in slot i of the row at base to the front, the
// most recently used slot, and the lines before it back by one.
func (c *Cache) promote(base, i int) {
	tags, dirty := c.tags[base:base+i+1], c.dirty[base:base+i+1]
	tag, d := tags[i], dirty[i]
	for j := i; j > 0; j-- {
		tags[j], dirty[j] = tags[j-1], dirty[j-1]
	}
	tags[0], dirty[0] = tag, d
}

// fill enters tag at the front of set as its most recently used line,
// evicting the least recently used line when the set is full.
func (c *Cache) fill(tag uint64, set int, dirty bool) Result {
	base, n := set*c.cfg.Ways, c.valid[set]
	var res Result
	if n == c.cfg.Ways {
		n--
		res = Result{Evicted: true, Victim: c.tags[base+n] << c.lineShift, Dirty: c.dirty[base+n]}
	} else {
		c.valid[set] = n + 1
	}
	c.tags[base+n], c.dirty[base+n] = tag, dirty
	c.promote(base, n)
	return res
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr, allocating on miss and evicting LRU when the set is full.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	tag, set, i := c.lookup(addr)
	if i >= 0 {
		c.stats.Hits++
		base := set * c.cfg.Ways
		if i > 0 {
			c.promote(base, i)
		}
		if write {
			c.dirty[base] = true
		}
		return Result{Hit: true}
	}
	c.stats.Misses++
	res := c.fill(tag, set, write)
	if res.Evicted {
		c.stats.Evictions++
		if res.Dirty {
			c.stats.Writebacks++
		}
	}
	return res
}

// HitMRU is the read hit of Access(addr, false) when addr's line is its
// set's most recently used line: it counts the access and the hit, which
// is all such a hit changes, and reports true. Otherwise it changes nothing
// and reports false, and the caller goes through Access. It is small enough
// to inline into a replay loop, where most hits are on that line.
func (c *Cache) HitMRU(addr uint64) bool {
	tag := addr >> c.lineShift
	set := int(tag & c.setMask)
	if c.valid[set] == 0 || c.tags[set*c.cfg.Ways] != tag {
		return false
	}
	c.stats.Accesses++
	c.stats.Hits++
	return true
}

// Install allocates the line containing addr without touching the demand
// statistics — the fill path used by prefetchers. Returns eviction info like
// Access. Installing an already-resident line refreshes its LRU position.
func (c *Cache) Install(addr uint64) Result {
	tag, set, i := c.lookup(addr)
	if i >= 0 {
		if i > 0 {
			c.promote(set*c.cfg.Ways, i)
		}
		return Result{Hit: true}
	}
	return c.fill(tag, set, false)
}

// Contains probes for the line containing addr without disturbing LRU state
// or statistics. It is used to measure inter-cache block replication.
func (c *Cache) Contains(addr uint64) bool {
	_, _, i := c.lookup(addr)
	return i >= 0
}

// AppendLines appends the resident line addresses to dst and returns the
// extended slice, used with a reusable scratch buffer to measure block
// replication across sibling caches. Lines come set by set, most recently
// used first within a set.
func (c *Cache) AppendLines(dst []uint64) []uint64 {
	for set, n := range c.valid {
		base := set * c.cfg.Ways
		for _, t := range c.tags[base : base+n] {
			dst = append(dst, t<<c.lineShift)
		}
	}
	return dst
}
