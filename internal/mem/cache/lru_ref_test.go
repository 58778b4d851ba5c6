package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is the timestamp LRU the recency-ordered sets replaced, kept as
// the reference model: every line carries the tick of its last use, a miss
// takes the first invalid way, else the way with the smallest tick.
type refCache struct {
	lines     []refLine // numSets*ways, set-major
	ways      int
	lineShift uint
	setMask   uint64
	tick      uint64
	stats     Stats
}

type refLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

func newRefCache(cfg Config) *refCache {
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &refCache{
		lines:     make([]refLine, numSets*cfg.Ways),
		ways:      cfg.Ways,
		lineShift: shift,
		setMask:   uint64(numSets - 1),
	}
}

func (c *refCache) set(tag uint64) []refLine {
	base := int(tag&c.setMask) * c.ways
	return c.lines[base : base+c.ways]
}

// victim returns the way a miss fills: the first invalid one, else LRU.
func victim(ways []refLine) int {
	v, oldest := 0, ^uint64(0)
	for i := range ways {
		if !ways[i].valid {
			return i
		}
		if ways[i].lastUse < oldest {
			oldest, v = ways[i].lastUse, i
		}
	}
	return v
}

func (c *refCache) Access(addr uint64, write bool) Result {
	c.tick++
	c.stats.Accesses++
	tag := addr >> c.lineShift
	ways := c.set(tag)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stats.Hits++
			ways[i].lastUse = c.tick
			if write {
				ways[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	v := victim(ways)
	var res Result
	if ways[v].valid {
		c.stats.Evictions++
		res.Evicted = true
		res.Victim = ways[v].tag << c.lineShift
		if ways[v].dirty {
			c.stats.Writebacks++
			res.Dirty = true
		}
	}
	ways[v] = refLine{tag: tag, valid: true, dirty: write, lastUse: c.tick}
	return res
}

func (c *refCache) Install(addr uint64) Result {
	c.tick++
	tag := addr >> c.lineShift
	ways := c.set(tag)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lastUse = c.tick
			return Result{Hit: true}
		}
	}
	v := victim(ways)
	var res Result
	if ways[v].valid {
		res.Evicted = true
		res.Victim = ways[v].tag << c.lineShift
		res.Dirty = ways[v].dirty
	}
	ways[v] = refLine{tag: tag, valid: true, lastUse: c.tick}
	return res
}

func (c *refCache) Contains(addr uint64) bool {
	tag := addr >> c.lineShift
	for _, l := range c.set(tag) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) AppendLines(dst []uint64) []uint64 {
	for _, l := range c.lines {
		if l.valid {
			dst = append(dst, l.tag<<c.lineShift)
		}
	}
	return dst
}

// TestMatchesReferenceLRU drives the cache and the timestamp reference with
// the same seeded streams of reads, writes, installs and probes, and
// compares every result, the statistics and the resident lines (and so the
// occupancy) after each operation. Each stream draws from a few more lines
// than a set holds, so sets fill, hit at every recency rank and evict.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, lineBytes := range []int{1, 64} {
		for _, geo := range []struct{ sets, ways int }{
			{4, 1}, {4, 2}, {4, 4}, {2, 8}, {2, 16}, {1, 24}, // last: fully associative
		} {
			cfg := Config{Name: "diff", SizeBytes: geo.sets * geo.ways * lineBytes, LineBytes: lineBytes, Ways: geo.ways}
			t.Run(fmt.Sprintf("line%d/%dx%d", lineBytes, geo.sets, geo.ways), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					compareWithReference(t, cfg, geo.sets, seed)
				}
			})
		}
	}
}

func compareWithReference(t *testing.T, cfg Config, sets int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Candidate addresses: 0 and the top of the address space, plus lines
	// spread over every set with up to twice as many tags per set as ways,
	// each at a random offset within its line.
	addrs := []uint64{0, ^uint64(0)}
	for tag := 0; tag < 2*cfg.Ways*sets; tag++ {
		line := uint64(tag) + uint64(rng.Intn(4))<<40
		addrs = append(addrs, line*uint64(cfg.LineBytes)+uint64(rng.Intn(cfg.LineBytes)))
	}
	c, ref := New(cfg), newRefCache(cfg)
	var got, want []uint64
	for op := 0; op < 3000; op++ {
		addr := addrs[rng.Intn(len(addrs))]
		var r, rr Result
		var what string
		switch k := rng.Intn(10); {
		case k < 4:
			what = "read"
			r, rr = c.Access(addr, false), ref.Access(addr, false)
		case k < 7:
			what = "write"
			r, rr = c.Access(addr, true), ref.Access(addr, true)
		case k < 9:
			what = "install"
			r, rr = c.Install(addr), ref.Install(addr)
		default:
			what = "contains"
			if in, rin := c.Contains(addr), ref.Contains(addr); in != rin {
				t.Fatalf("seed %d op %d: Contains(%#x) = %v, reference %v", seed, op, addr, in, rin)
			}
		}
		if r != rr {
			t.Fatalf("seed %d op %d: %s(%#x) = %+v, reference %+v", seed, op, what, addr, r, rr)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("seed %d op %d: stats %+v, reference %+v", seed, op, c.Stats(), ref.stats)
		}
		got, want = c.AppendLines(got[:0]), ref.AppendLines(want[:0])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d op %d: resident lines %x, reference %x", seed, op, got, want)
		}
	}
}
