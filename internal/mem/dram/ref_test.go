package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

// refDRAM is the controller model before its compaction skip, kept as the
// reference: every request compacts its channel's queue of outstanding
// completions.
type refDRAM struct {
	cfg      Config
	channels []refChannel
	stats    Stats
	starts   []int64 // service start of every request, in order
}

type refChannel struct {
	banks    []bank
	busFree  int64
	inflight []int64 // outstanding completion times, oldest first
}

func newRefDRAM(cfg Config) *refDRAM {
	cfg = New(cfg).cfg // the same defaulting
	d := &refDRAM{cfg: cfg, channels: make([]refChannel, cfg.Channels)}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.Banks)
		for b := range d.channels[i].banks {
			d.channels[i].banks[b].openRow = -1
		}
	}
	return d
}

func (d *refDRAM) Access(now int64, addr uint64, write bool) int64 {
	line := addr >> 6
	ch := int(line % uint64(d.cfg.Channels))
	line /= uint64(d.cfg.Channels)
	bk := int(line % uint64(d.cfg.Banks))
	line /= uint64(d.cfg.Banks)
	row := int64(line / uint64(d.cfg.RowBytes/64))
	c := &d.channels[ch]
	b := &c.banks[bk]

	start := now
	if len(c.inflight) >= d.cfg.QueueDepth {
		start = max(start, c.inflight[0])
		c.inflight = c.inflight[1:]
	}
	start = max(start, b.readyAt)
	if d.cfg.RefreshInterval > 0 {
		if window := start / d.cfg.RefreshInterval; window > b.refWindow {
			b.refWindow = window
			start += d.cfg.RefreshLatency
			b.openRow = -1
			d.stats.Refreshes++
		}
	}
	deviceLat := d.cfg.RowMissLatency
	if b.openRow == row {
		deviceLat = d.cfg.RowHitLatency
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
		b.openRow = row
	}
	busStart := max(start+deviceLat-d.cfg.BurstCycles, c.busFree)
	c.busFree = busStart + d.cfg.BurstCycles
	done := c.busFree
	if write && d.cfg.PostedWrites {
		b.readyAt = start + d.cfg.BurstCycles
	} else {
		b.readyAt = start + deviceLat
	}
	live := c.inflight[:0:0]
	for _, t := range c.inflight {
		if t > now {
			live = append(live, t)
		}
	}
	c.inflight = append(live, done)

	lat := done - now
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.stats.SumLatency += uint64(lat)
	d.stats.MaxLatency = max(d.stats.MaxLatency, lat)
	d.stats.BusyCycles += d.cfg.BurstCycles
	d.starts = append(d.starts, start)
	return done
}

// TestMatchesReference drives the controller and the reference with the
// same seeded request streams — arrivals that mostly advance but also step
// back and bunch up, so queues fill, drain and compact — and compares every
// completion time, every service start and the final statistics.
func TestMatchesReference(t *testing.T) {
	geometries := []Config{
		DefaultConfig(),
		// Not powers of two: 3 channels, 6 banks, 24 lines per row.
		{Channels: 3, Banks: 6, RowBytes: 1536, RowHitLatency: 50, RowMissLatency: 100, BurstCycles: 4},
	}
	for gi, geo := range geometries {
		for _, depth := range []int{1, 2, 48} {
			for _, refresh := range []bool{false, true} {
				for _, posted := range []bool{false, true} {
					cfg := geo
					cfg.QueueDepth = depth
					cfg.PostedWrites = posted
					if refresh {
						cfg.RefreshInterval, cfg.RefreshLatency = 3000, 120
					}
					name := fmt.Sprintf("geo%d/depth%d/refresh=%v/posted=%v", gi, depth, refresh, posted)
					t.Run(name, func(t *testing.T) {
						for seed := int64(1); seed <= 3; seed++ {
							compareWithReference(t, cfg, seed)
						}
					})
				}
			}
		}
	}
}

func compareWithReference(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, ref := New(cfg), newRefDRAM(cfg)
	var starts []int64
	d.OnRequest = func(s int64) { starts = append(starts, s) }
	now := int64(0)
	for i := 0; i < 4000; i++ {
		switch k := rng.Intn(20); {
		case k < 12:
			now += int64(rng.Intn(8)) // a burst: same or nearby cycles
		case k < 17:
			now -= int64(rng.Intn(40)) // an earlier requester's turn
		case k < 19:
			now += int64(rng.Intn(400))
		default:
			now += int64(rng.Intn(5000)) // idle: queues drain, refresh
		}
		now = max(now, 0)
		// Rows near each other, so row hits, conflicts and every bank recur.
		addr := uint64(rng.Intn(1<<14))<<6 | uint64(rng.Intn(64))
		write := rng.Intn(4) == 0
		if got, want := d.Access(now, addr, write), ref.Access(now, addr, write); got != want {
			t.Fatalf("seed %d request %d (now %d, addr %#x, write %v): done %d, reference %d",
				seed, i, now, addr, write, got, want)
		}
		if s, rs := starts[len(starts)-1], ref.starts[len(ref.starts)-1]; s != rs {
			t.Fatalf("seed %d request %d: started %d, reference %d", seed, i, s, rs)
		}
	}
	if d.Stats() != ref.stats {
		t.Fatalf("seed %d: stats %+v, reference %+v", seed, d.Stats(), ref.stats)
	}
}
