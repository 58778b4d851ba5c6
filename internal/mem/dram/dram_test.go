package dram

import (
	"math/rand"
	"testing"
)

func smallConfig() Config {
	return Config{
		Channels:       1,
		Banks:          2,
		RowBytes:       1024,
		RowHitLatency:  10,
		RowMissLatency: 30,
		BurstCycles:    4,
		QueueDepth:     4,
	}
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	d := New(smallConfig())
	done := d.Access(0, 0, false)
	if done != 30 {
		t.Errorf("first access done at %d, want 30 (row miss)", done)
	}
	s := d.Stats()
	if s.RowMisses != 1 || s.RowHits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRowHitAfterOpen(t *testing.T) {
	d := New(smallConfig())
	d.Access(0, 0, false)
	// Same row, same bank, issued after the first completes.
	done := d.Access(100, 64*2, false) // next lines stripe over banks; pick same bank
	// With 1 channel, 2 banks: line 0 -> bank 0; line 2 -> bank 0 too.
	if lat := done - 100; lat != 10+0 && lat != 10+4 {
		// Row hit latency, possibly plus bus wait (none here).
		if lat != 10 {
			t.Errorf("row-hit latency = %d, want 10", lat)
		}
	}
	if d.Stats().RowHits != 1 {
		t.Errorf("row hits = %d, want 1", d.Stats().RowHits)
	}
}

func TestRowConflictPaysMissLatency(t *testing.T) {
	d := New(smallConfig())
	d.Access(0, 0, false)
	// Different row, same bank: rows are RowBytes apart within the bank.
	// linesPerRow = 1024/64 = 16, bank stride: with 1 ch, 2 banks, bank 0
	// lines are even lines. Line index 32 (addr 32*64) -> bank 0, row 1.
	done := d.Access(1000, 32*64, false)
	if lat := done - 1000; lat != 30 {
		t.Errorf("row-conflict latency = %d, want 30", lat)
	}
}

func TestBankContentionSerializes(t *testing.T) {
	d := New(smallConfig())
	// Two simultaneous requests to the same bank, different rows.
	d.Access(0, 0, false)
	done := d.Access(0, 32*64, false)
	// Second must wait for bank ready (30) then pay 30 more.
	if done < 60 {
		t.Errorf("contended access done at %d, want >= 60", done)
	}
}

func TestBusBandwidthBound(t *testing.T) {
	cfg := smallConfig()
	d := New(cfg)
	// Saturate one channel with row hits on alternating banks: the bus, not
	// the banks, must bound throughput at 1 line per BurstCycles.
	const n = 64
	// Warm rows on both banks.
	d.Access(0, 0, false)
	d.Access(0, 64, false)
	d.ResetStats()
	var last int64
	for i := 0; i < n; i++ {
		addr := uint64((i % 2) * 64) // alternate banks, same rows
		last = d.Access(0, addr, false)
	}
	minTime := int64(n) * cfg.BurstCycles
	if last < minTime {
		t.Errorf("served %d lines by cycle %d; bus bound is %d", n, last, minTime)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	// The queueing property LIBRA exploits: average latency at high offered
	// load must exceed average latency at low load.
	run := func(gap int64) float64 {
		d := New(smallConfig())
		rng := rand.New(rand.NewSource(1))
		now := int64(0)
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1<<16)) &^ 63
			d.Access(now, addr, false)
			now += gap
		}
		return d.Stats().AvgLatency()
	}
	low := run(100) // sparse requests
	high := run(1)  // saturating requests
	if high <= low {
		t.Errorf("latency under load (%v) should exceed idle latency (%v)", high, low)
	}
	if high < 2*low {
		t.Errorf("saturation should at least double latency: low=%v high=%v", low, high)
	}
}

func TestChannelsAreIndependent(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 2
	d := New(cfg)
	// Line 0 -> channel 0; line 1 -> channel 1. Simultaneous requests should
	// not serialize on the bus.
	d0 := d.Access(0, 0, false)
	d1 := d.Access(0, 64, false)
	if d1 > d0+cfg.BurstCycles {
		t.Errorf("requests on separate channels serialized: %d vs %d", d0, d1)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := New(smallConfig())
	d.Access(0, 0, false)
	d.Access(0, 64, true)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Accesses() != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.RowHits+s.RowMisses != s.Accesses() {
		t.Errorf("row hits+misses != accesses: %+v", s)
	}
	if s.AvgLatency() <= 0 {
		t.Error("avg latency should be positive")
	}
	d.ResetStats()
	if d.Stats().Accesses() != 0 {
		t.Error("ResetStats should clear counters")
	}
}

func TestOnRequestHook(t *testing.T) {
	d := New(smallConfig())
	var starts []int64
	d.OnRequest = func(s int64) { starts = append(starts, s) }
	d.Access(5, 0, false)
	d.Access(50, 64, false)
	if len(starts) != 2 {
		t.Fatalf("hook called %d times, want 2", len(starts))
	}
	if starts[0] < 5 || starts[1] < 50 {
		t.Errorf("service start before arrival: %v", starts)
	}
}

func TestLatencyNeverBelowDeviceMinimum(t *testing.T) {
	d := New(smallConfig())
	rng := rand.New(rand.NewSource(2))
	now := int64(0)
	for i := 0; i < 1000; i++ {
		addr := uint64(rng.Intn(1<<18)) &^ 63
		done := d.Access(now, addr, rng.Intn(2) == 0)
		if lat := done - now; lat < 10 {
			t.Fatalf("latency %d below row-hit minimum", lat)
		}
		now += int64(rng.Intn(20))
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{})
	if d.cfg != DefaultConfig() {
		t.Errorf("zero config should yield defaults: got %+v", d.cfg)
	}
}
