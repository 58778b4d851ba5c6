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

// isMRU reports whether addr's line is resident and the most recently used
// line of its set: the valid way with the largest tick.
func (c *refCache) isMRU(addr uint64) bool {
	tag := addr >> c.lineShift
	mru := -1
	ways := c.set(tag)
	for i := range ways {
		if ways[i].valid && (mru < 0 || ways[i].lastUse > ways[mru].lastUse) {
			mru = i
		}
	}
	return mru >= 0 && ways[mru].tag == tag
}

// lruGeometries are the sets × ways shapes of the differential tests, from
// direct mapped to fully associative (the last).
var lruGeometries = []struct{ sets, ways int }{
	{4, 1}, {4, 2}, {4, 4}, {2, 8}, {2, 16}, {1, 24},
}

// lruOpKinds is the op mix of a differential stream: an op drawn as k in
// [0, len(lruOpKinds)) is lruOpKinds[k], so reads are 4 in 12, writes 3,
// installs 2, probes 1 and MRU probes 2.
var lruOpKinds = []string{
	"read", "read", "read", "read", "write", "write", "write",
	"install", "install", "contains", "hitmru", "hitmru",
}

// lruOp is one operation of a differential stream.
type lruOp struct {
	kind string // an entry of lruOpKinds
	addr uint64
}

// candidateAddrs returns the addresses a differential stream on cfg draws
// from: 0 and the top of the address space, plus lines spread over every
// set with up to twice as many tags per set as ways, each at a random
// offset within its line. A stream over them fills sets, hits at every
// recency rank and evicts.
func candidateAddrs(cfg Config, sets int, rng *rand.Rand) []uint64 {
	addrs := []uint64{0, ^uint64(0)}
	for tag := 0; tag < 2*cfg.Ways*sets; tag++ {
		line := uint64(tag) + uint64(rng.Intn(4))<<40
		addrs = append(addrs, line*uint64(cfg.LineBytes)+uint64(rng.Intn(cfg.LineBytes)))
	}
	return addrs
}

// TestMatchesReferenceLRU drives the cache and the timestamp reference with
// the same seeded streams of reads, writes, installs, probes and MRU
// probes (checkAgainstReference) at every geometry of lruGeometries, with
// 1- and 64-byte lines.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, lineBytes := range []int{1, 64} {
		for _, geo := range lruGeometries {
			t.Run(fmt.Sprintf("line%d/%dx%d", lineBytes, geo.sets, geo.ways), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					cfg := Config{Name: fmt.Sprintf("seed %d", seed), SizeBytes: geo.sets * geo.ways * lineBytes, LineBytes: lineBytes, Ways: geo.ways}
					rng := rand.New(rand.NewSource(seed))
					addrs := candidateAddrs(cfg, geo.sets, rng)
					// The stream first probes every candidate in the empty
					// cache, where each set's first slot holds a zero tag
					// and no line.
					var ops []lruOp
					for _, a := range addrs {
						ops = append(ops, lruOp{kind: "hitmru", addr: a})
					}
					for range 3000 {
						ops = append(ops, lruOp{kind: lruOpKinds[rng.Intn(len(lruOpKinds))], addr: addrs[rng.Intn(len(addrs))]})
					}
					checkAgainstReference(t, cfg, ops)
				}
			})
		}
	}
}

// FuzzLRUReference runs checkAgainstReference on fuzzed streams. The first
// byte picks the line size and geometry, and seeds the candidate
// addresses; each following pair of bytes is one op: its kind, then its
// address among the candidates.
func FuzzLRUReference(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 1, 0, 0, 10, 0, 0, 1, 10, 1})
	f.Add([]byte{5, 4, 2, 10, 2, 7, 3, 10, 2, 11, 3, 0, 1, 10, 1})
	f.Add([]byte{11, 4, 2, 4, 3, 4, 4, 10, 2, 0, 1, 11, 1, 8, 5, 10, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := int(data[0]) % (2 * len(lruGeometries))
		geo := lruGeometries[g%len(lruGeometries)]
		lineBytes := []int{1, 64}[g/len(lruGeometries)]
		cfg := Config{Name: "fuzz", SizeBytes: geo.sets * geo.ways * lineBytes, LineBytes: lineBytes, Ways: geo.ways}
		addrs := candidateAddrs(cfg, geo.sets, rand.New(rand.NewSource(int64(data[0]))))
		var ops []lruOp
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, lruOp{
				kind: lruOpKinds[int(data[i])%len(lruOpKinds)],
				addr: addrs[int(data[i+1])%len(addrs)],
			})
		}
		checkAgainstReference(t, cfg, ops)
	})
}

// checkAgainstReference applies ops to a new cache and a new reference on
// cfg and compares every result, the statistics and the resident lines
// (and so the occupancy) after each op; cfg.Name labels its failures. An
// MRU probe must report true exactly when the reference holds addr's line
// as its set's most recently used; then the reference takes
// Access(addr, false), and otherwise nothing, so the comparisons that
// follow hold the probe to changing what that read would and nothing else.
func checkAgainstReference(t *testing.T, cfg Config, ops []lruOp) {
	t.Helper()
	c, ref := New(cfg), newRefCache(cfg)
	var got, want []uint64
	for i, op := range ops {
		addr := op.addr
		var r, rr Result
		switch op.kind {
		case "read":
			r, rr = c.Access(addr, false), ref.Access(addr, false)
		case "write":
			r, rr = c.Access(addr, true), ref.Access(addr, true)
		case "install":
			r, rr = c.Install(addr), ref.Install(addr)
		case "contains":
			if in, rin := c.Contains(addr), ref.Contains(addr); in != rin {
				t.Fatalf("%s op %d: Contains(%#x) = %v, reference %v", cfg.Name, i, addr, in, rin)
			}
		case "hitmru":
			hit, mru := c.HitMRU(addr), ref.isMRU(addr)
			if hit != mru {
				t.Fatalf("%s op %d: HitMRU(%#x) = %v, reference holds it most recently used: %v", cfg.Name, i, addr, hit, mru)
			}
			if hit {
				if rr := ref.Access(addr, false); !rr.Hit {
					t.Fatalf("%s op %d: HitMRU(%#x) hit, reference read %+v", cfg.Name, i, addr, rr)
				}
			}
		}
		if r != rr {
			t.Fatalf("%s op %d: %s(%#x) = %+v, reference %+v", cfg.Name, i, op.kind, addr, r, rr)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%s op %d: %s(%#x): stats %+v, reference %+v", cfg.Name, i, op.kind, addr, c.Stats(), ref.stats)
		}
		got, want = c.AppendLines(got[:0]), ref.AppendLines(want[:0])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s op %d: %s(%#x): resident lines %x, reference %x", cfg.Name, i, op.kind, addr, got, want)
		}
	}
}
