package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 2}
}

func TestValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "line", SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{Name: "ways", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "size", SizeBytes: 1000, LineBytes: 64, Ways: 2},
		{Name: "sets", SizeBytes: 64 * 3 * 2, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be invalid", cfg.Name)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid config")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 3, LineBytes: 2, Ways: 1})
}

func TestMissThenHit(t *testing.T) {
	c := New(testConfig())
	if r := c.Access(0x100, false); r.Hit {
		t.Error("first access should miss")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Error("second access should hit")
	}
	if r := c.Access(0x13F, false); !r.Hit {
		t.Error("same-line access should hit")
	}
	if r := c.Access(0x140, false); r.Hit {
		t.Error("next-line access should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(testConfig()) // 8 sets, 2 ways
	// Three distinct lines mapping to the same set: set = tag % 8.
	// With 64B lines and 8 sets, addresses 0, 512, 1024 share set 0.
	c.Access(0, false)
	c.Access(512, false)
	c.Access(0, false) // make 512 the LRU
	r := c.Access(1024, false)
	if r.Hit {
		t.Fatal("conflict access should miss")
	}
	if !r.Evicted || r.Victim != 512 {
		t.Fatalf("expected eviction of 512, got %+v", r)
	}
	if !c.Contains(0) {
		t.Error("MRU line 0 should survive")
	}
	if c.Contains(512) {
		t.Error("LRU line 512 should be evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(testConfig())
	c.Access(0, true) // dirty
	c.Access(512, false)
	r := c.Access(1024, false) // evicts 0 (LRU, dirty)
	if !r.Evicted || !r.Dirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if r.Victim != 0 {
		t.Fatalf("victim = %#x, want 0", r.Victim)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	// Clean eviction should not count as writeback.
	c2 := New(testConfig())
	c2.Access(0, false)
	c2.Access(512, false)
	c2.Access(1024, false)
	if c2.Stats().Writebacks != 0 {
		t.Errorf("clean eviction produced writeback")
	}
}

func TestContainsDoesNotDisturbState(t *testing.T) {
	c := New(testConfig())
	c.Access(0, false)
	before := c.Stats()
	if !c.Contains(0) || c.Contains(512) {
		t.Error("Contains gave wrong answer")
	}
	if c.Stats() != before {
		t.Error("Contains must not change statistics")
	}
	// Probing must not refresh LRU: after probing 0, line 0 must still be
	// evicted first if it is LRU.
	c.Access(512, false)
	c.Contains(0) // 0 is LRU; probe must not promote it
	c.Access(1024, false)
	if c.Contains(0) {
		t.Error("Contains refreshed LRU state")
	}
}

// Property: hits + misses == accesses, and valid lines never exceed capacity.
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "q", SizeBytes: 2048, LineBytes: 64, Ways: 4})
		for i := 0; i < int(n); i++ {
			addr := uint64(rng.Intn(1 << 14))
			c.Access(addr, rng.Intn(2) == 0)
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			return false
		}
		if len(c.AppendLines(nil)) > 2048/64 {
			return false
		}
		return s.Writebacks <= s.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a working set that fits in the cache reaches 100% hit ratio after
// the first pass.
func TestResidentWorkingSetAlwaysHits(t *testing.T) {
	c := New(Config{Name: "ws", SizeBytes: 4096, LineBytes: 64, Ways: 4})
	lines := 4096 / 64
	for i := 0; i < lines; i++ {
		c.Access(uint64(i*64), false)
	}
	c.ResetStats()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), false)
		}
	}
	if hr := c.Stats().HitRatio(); hr != 1.0 {
		t.Errorf("resident working set hit ratio = %v, want 1.0", hr)
	}
}

func TestHitRatioEmptyCache(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Error("empty stats should have 0 hit ratio")
	}
}

func TestLines(t *testing.T) {
	c := New(testConfig())
	if len(c.AppendLines(nil)) != 0 {
		t.Error("fresh cache should have no lines")
	}
	c.Access(0x100, false)
	c.Access(0x240, true)
	lines := c.AppendLines(nil)
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	want := map[uint64]bool{0x100: true, 0x240: true}
	for _, l := range lines {
		if !want[l] {
			t.Errorf("unexpected resident line %#x", l)
		}
	}
}

func TestInstallRefreshesLRU(t *testing.T) {
	c := New(testConfig()) // 8 sets, 2 ways; 0 and 512 share set 0
	c.Access(0, false)
	c.Access(512, false)
	// 0 is LRU; Install refreshes it, so 512 must be evicted next.
	c.Install(0)
	c.Access(1024, false)
	if !c.Contains(0) || c.Contains(512) {
		t.Error("Install should refresh the line's LRU position")
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	if c.Config() != cfg {
		t.Error("Config() should round-trip")
	}
	if c.LineAddr(0x17F) != 0x140 {
		t.Errorf("LineAddr = %#x", c.LineAddr(0x17F))
	}
}
