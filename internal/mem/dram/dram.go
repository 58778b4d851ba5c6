// Package dram models the timing and energy of an LPDDR4-class main memory
// with its memory controller, standing in for DRAMsim3 in the original
// TEAPOT-based evaluation.
//
// The model captures the properties LIBRA depends on:
//
//   - banked structure with open-page row buffers: row hits are fast, row
//     conflicts pay precharge+activate;
//   - a shared data bus per channel with finite bandwidth, so the response
//     time grows super-linearly as the offered load approaches the bus
//     bandwidth (the "asymptotic response time" effect of §I and §III);
//   - per-event energy (activate, read, write) plus background power.
//
// The simulator is driven in global time order by the discrete-event engine,
// so requests from concurrently-rendering tiles naturally contend here.
package dram

import (
	"math"

	"repro/internal/telemetry"
)

// Config holds DRAM geometry and timing, in GPU core cycles (the simulator
// runs on a single clock domain; LPDDR4 timings are pre-converted).
type Config struct {
	Channels int // independent channels (data buses)
	Banks    int // banks per channel
	RowBytes int // row-buffer size

	// Timing, in GPU cycles.
	RowHitLatency  int64 // CAS-to-data for an open-row access
	RowMissLatency int64 // precharge + activate + CAS for a closed/conflicting row
	BurstCycles    int64 // data-bus occupancy per 64B transfer (bandwidth bound)

	// QueueDepth bounds the number of requests a channel can overlap; beyond
	// it, new arrivals queue behind the oldest outstanding one.
	QueueDepth int

	// RefreshInterval, when non-zero, stalls each bank for RefreshLatency
	// cycles once per interval (tREFI/tRFC modelling). Zero disables
	// refresh.
	RefreshInterval int64
	RefreshLatency  int64

	// PostedWrites makes writes release their bank after the data burst
	// instead of the full access latency, approximating a write buffer
	// drained behind reads (read-priority controllers).
	PostedWrites bool
}

// DefaultConfig models the paper's LPDDR4-1200 part feeding an 800 MHz GPU:
// 50–100 cycle device latency and a bandwidth of one 64-byte line per
// BurstCycles per channel.
func DefaultConfig() Config {
	return Config{
		Channels:       2,
		Banks:          8,
		RowBytes:       2048,
		RowHitLatency:  50,
		RowMissLatency: 100,
		BurstCycles:    4,
		QueueDepth:     48,
	}
}

// Stats aggregates DRAM activity since the last reset.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	Refreshes  uint64
	SumLatency uint64 // total observed latency over all requests
	MaxLatency int64
	// BusyCycles approximates data-bus occupancy (for utilization metrics).
	BusyCycles int64
}

// Accesses returns the total number of requests served.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// AvgLatency returns the mean observed request latency in cycles.
func (s Stats) AvgLatency() float64 {
	n := s.Accesses()
	if n == 0 {
		return 0
	}
	return float64(s.SumLatency) / float64(n)
}

// RowHitRatio returns the fraction of requests that hit an open row.
func (s Stats) RowHitRatio() float64 {
	n := s.Accesses()
	if n == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(n)
}

type bank struct {
	openRow   int64 // -1 when closed
	readyAt   int64 // cycle at which the bank can start a new access
	refWindow int64 // last refresh window this bank has paid for
}

type channel struct {
	banks   []bank
	busFree int64 // cycle at which the data bus is free
	// inflight is a fixed-capacity ring of completion times of outstanding
	// requests (the bounded controller queue). A plain slice with [1:] pops
	// bleeds front capacity and re-allocates on every append under a full
	// queue — per-access garbage on the simulator's hottest path.
	inflight []int64 // ring storage, len == QueueDepth
	infHead  int     // index of the oldest outstanding request
	infLen   int     // outstanding request count
	// infMin is a lower bound on the completion times in the ring: while
	// it is later than an arrival, no request has completed by then and
	// compaction would drop nothing.
	infMin int64
}

// infAt returns the i-th oldest outstanding completion time.
func (c *channel) infAt(i int) int64 {
	j := c.infHead + i
	if j >= len(c.inflight) {
		j -= len(c.inflight)
	}
	return c.inflight[j]
}

// infSet overwrites the i-th oldest slot (compaction helper).
func (c *channel) infSet(i int, v int64) {
	j := c.infHead + i
	if j >= len(c.inflight) {
		j -= len(c.inflight)
	}
	c.inflight[j] = v
}

// DRAM is a timed multi-channel, multi-bank memory.
type DRAM struct {
	cfg      Config
	channels []channel
	stats    Stats

	// OnRequest, when non-nil, is invoked with the service start time of
	// every request; the stats package uses it to build the per-interval
	// request histogram of Fig. 7.
	OnRequest func(start int64)

	// rec, when non-nil, receives every request with its bank placement and
	// service window — the observability layer's DRAM activity tracks. The
	// nil check keeps the disabled hot path branch-only.
	rec telemetry.Recorder
}

// New builds a DRAM from cfg. Zero-valued fields are replaced by defaults.
func New(cfg Config) *DRAM {
	def := DefaultConfig()
	if cfg.Channels <= 0 {
		cfg.Channels = def.Channels
	}
	if cfg.Banks <= 0 {
		cfg.Banks = def.Banks
	}
	if cfg.RowBytes <= 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.RowHitLatency <= 0 {
		cfg.RowHitLatency = def.RowHitLatency
	}
	if cfg.RowMissLatency <= 0 {
		cfg.RowMissLatency = def.RowMissLatency
	}
	if cfg.BurstCycles <= 0 {
		cfg.BurstCycles = def.BurstCycles
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	d := &DRAM{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.Banks)
		d.channels[i].inflight = make([]int64, cfg.QueueDepth)
		d.channels[i].infMin = math.MaxInt64
		for b := range d.channels[i].banks {
			d.channels[i].banks[b].openRow = -1
		}
	}
	return d
}

// Stats returns the counters accumulated since the last ResetStats.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats clears counters but keeps bank/row state and timing.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// SetRecorder attaches (or, with nil, detaches) the telemetry recorder that
// receives per-request DRAM events.
func (d *DRAM) SetRecorder(rec telemetry.Recorder) { d.rec = rec }

// mapAddr decomposes a line address into channel, bank and row. Channel and
// bank bits are taken just above the line offset so consecutive lines stripe
// across channels and banks (the usual controller interleaving).
func (d *DRAM) mapAddr(addr uint64) (ch, bk int, row int64) {
	line := addr >> 6 // 64-byte lines
	ch = int(line % uint64(d.cfg.Channels))
	line /= uint64(d.cfg.Channels)
	bk = int(line % uint64(d.cfg.Banks))
	line /= uint64(d.cfg.Banks)
	linesPerRow := uint64(d.cfg.RowBytes / 64)
	row = int64(line / linesPerRow)
	return ch, bk, row
}

// Access serves one 64-byte request arriving at cycle `now` and returns the
// cycle at which the data is available. The observed latency (done-now)
// includes queueing, bank and bus contention.
func (d *DRAM) Access(now int64, addr uint64, write bool) (done int64) {
	ch, bk, row := d.mapAddr(addr)
	c := &d.channels[ch]
	b := &c.banks[bk]

	start := now
	// Bounded controller queue: with QueueDepth requests outstanding, a new
	// arrival waits for the oldest to complete.
	if c.infLen >= d.cfg.QueueDepth {
		oldest := c.inflight[c.infHead]
		c.infHead++
		if c.infHead == len(c.inflight) {
			c.infHead = 0
		}
		c.infLen--
		if oldest > start {
			start = oldest
		}
	}
	if b.readyAt > start {
		start = b.readyAt
	}

	// Refresh: once per RefreshInterval the bank pays RefreshLatency and
	// loses its open row.
	if d.cfg.RefreshInterval > 0 {
		window := start / d.cfg.RefreshInterval
		if window > b.refWindow {
			b.refWindow = window
			start += d.cfg.RefreshLatency
			b.openRow = -1
			d.stats.Refreshes++
		}
	}

	var deviceLat int64
	rowHit := b.openRow == row
	if rowHit {
		deviceLat = d.cfg.RowHitLatency
		d.stats.RowHits++
	} else {
		deviceLat = d.cfg.RowMissLatency
		d.stats.RowMisses++
		b.openRow = row
	}

	// Data-bus serialization: each transfer occupies the channel bus for
	// BurstCycles; the transfer cannot complete before the bus is free.
	dataReady := start + deviceLat
	busStart := dataReady - d.cfg.BurstCycles
	if busStart < c.busFree {
		busStart = c.busFree
	}
	c.busFree = busStart + d.cfg.BurstCycles
	done = busStart + d.cfg.BurstCycles

	// Bank becomes available for the next access once the column access is
	// done (pipelined behind the data transfer). Posted writes release the
	// bank after the burst: the write buffer hides the rest.
	if write && d.cfg.PostedWrites {
		b.readyAt = start + d.cfg.BurstCycles
	} else {
		b.readyAt = start + deviceLat
	}

	// Track outstanding requests (drop completed ones lazily): when one may
	// have completed by now, compact the still-live completion times toward
	// the ring head; then push done.
	if c.infMin <= now {
		w, m := 0, int64(math.MaxInt64)
		for i := 0; i < c.infLen; i++ {
			if t := c.infAt(i); t > now {
				c.infSet(w, t)
				w++
				m = min(m, t)
			}
		}
		c.infLen, c.infMin = w, m
	}
	c.infSet(c.infLen, done)
	c.infLen++
	c.infMin = min(c.infMin, done)

	lat := done - now
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.stats.SumLatency += uint64(lat)
	if lat > d.stats.MaxLatency {
		d.stats.MaxLatency = lat
	}
	d.stats.BusyCycles += d.cfg.BurstCycles
	if d.OnRequest != nil {
		d.OnRequest(start)
	}
	if d.rec != nil {
		d.rec.DRAMAccess(ch, bk, start, done, write, rowHit, c.infLen)
	}
	return done
}
