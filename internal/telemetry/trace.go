package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Trace process ids — one Perfetto "process" row per simulated subsystem.
const (
	pidFrame = 1 // frame spans and scheduler instants
	pidRU    = 2 // one thread per Raster Unit
	pidDRAM  = 3 // one thread per (channel, bank), plus queue-depth counters
	pidCache = 4 // derived L1/L2 hit-rate counter tracks
)

// bankTidStride spaces DRAM thread ids: tid = channel*bankTidStride + bank.
const bankTidStride = 64

// TraceConfig sizes a Trace. Zero values select the defaults.
type TraceConfig struct {
	// ClockHz converts cycles to trace microseconds (default 800 MHz,
	// Table I's GPU clock).
	ClockHz float64
	// MetricsInterval is the bucket width in cycles of every time series in
	// the registry (default 5000, the Fig. 7 interval).
	MetricsInterval int64
	// MaxEvents caps the retained trace events so a long run cannot exhaust
	// memory; further events are dropped while the metrics registry keeps
	// accumulating. Both exports report the count of dropped events, once
	// there is one. Default 1<<20.
	MaxEvents int
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.ClockHz <= 0 {
		c.ClockHz = 800e6
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = 5000
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 20
	}
	return c
}

// Event is one Chrome trace-event object. Field names follow the trace-event
// format: ph is the phase ("X" complete span, "i" instant, "C" counter, "M"
// metadata), ts/dur are microseconds.
type Event struct {
	Name string  `json:"name,omitempty"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"`
	Args any     `json:"args,omitempty"`
}

// Typed Args payloads. A map[string]any here would put every emit on the
// allocation hot path (map header + boxed values); small structs keep the
// event append allocation-free apart from the events slice itself. Fields are
// declared in alphabetical JSON-name order so the marshaled bytes match the
// sorted-key output of the maps they replace, keeping golden traces stable.
type tileArgs struct {
	Dram  int `json:"dram"`
	Quads int `json:"quads"`
	Tile  int `json:"tile"`
}

type dramArgs struct {
	Queue  int  `json:"queue"`
	RowHit bool `json:"rowHit"`
}

type depthArgs struct {
	Depth int `json:"depth"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type skipArgs struct {
	Tile int `json:"tile"`
}

type pctArgs struct {
	Pct float64 `json:"pct"`
}

// ruMetrics are the per-Raster-Unit registry handles, resolved once per RU so
// the enabled hot path does not format metric names per event.
type ruMetrics struct {
	busy, idle, tiles, assigned *Counter
}

// Trace is the standard Recorder: it accumulates Chrome trace events and
// publishes every event into a metrics Registry. Safe for concurrent use —
// the parallel experiment pool may drive several simulations into one Trace.
type Trace struct {
	cfg TraceConfig
	reg *Registry

	// Registry handles resolved at construction (hot-path emit sites).
	l1Hits, l1Misses *IntervalHistogram
	l2Hits, l2Misses *IntervalHistogram
	dramReqs         *IntervalHistogram
	qdSum, qdCount   *IntervalHistogram

	mu          sync.Mutex
	events      []Event
	dropped     int
	frame       int
	frameStart  int64
	lastTileEnd map[int]int64
	perRU       map[int]*ruMetrics
	bankHists   map[int]*IntervalHistogram // keyed by DRAM tid
	ruSeen      map[int]bool
	bankSeen    map[int]bool // DRAM tids

	// Rendering Elimination tallies. reSkipped counts TileSkipped events,
	// reSeen counts rendered TileSpans; their sum is every tile dispatched.
	// The re.* registry entries are materialized only once a skip has
	// occurred, so RE-off runs export byte-identical traces and metrics.
	reSkipped int64
	reSeen    int64
}

// NewTrace builds an empty trace with its own registry.
func NewTrace(cfg TraceConfig) *Trace {
	cfg = cfg.withDefaults()
	reg := NewRegistry()
	w := cfg.MetricsInterval
	return &Trace{
		cfg:         cfg,
		reg:         reg,
		l1Hits:      reg.Histogram("cache.l1.hits", w),
		l1Misses:    reg.Histogram("cache.l1.misses", w),
		l2Hits:      reg.Histogram("cache.l2.hits", w),
		l2Misses:    reg.Histogram("cache.l2.misses", w),
		dramReqs:    reg.Histogram("dram.requests", w),
		qdSum:       reg.Histogram("dram.queue_depth.sum", w),
		qdCount:     reg.Histogram("dram.queue_depth.count", w),
		lastTileEnd: map[int]int64{},
		perRU:       map[int]*ruMetrics{},
		bankHists:   map[int]*IntervalHistogram{},
		ruSeen:      map[int]bool{},
		bankSeen:    map[int]bool{},
	}
}

// us converts a cycle count to trace microseconds.
func (t *Trace) us(cycles int64) float64 {
	return float64(cycles) * 1e6 / t.cfg.ClockHz
}

// add appends one event under t.mu, honouring the MaxEvents cap. The
// trace.dropped_events counter first appears at the first drop, so a run
// within the cap exports metrics byte-identical to one without a cap.
func (t *Trace) add(ev Event) {
	if len(t.events) >= t.cfg.MaxEvents {
		t.dropped++
		t.reg.Counter("trace.dropped_events").Inc()
		return
	}
	t.events = append(t.events, ev)
}

// ru resolves the per-RU metric handles under t.mu.
func (t *Trace) ru(id int) *ruMetrics {
	m, ok := t.perRU[id]
	if !ok {
		m = &ruMetrics{
			busy:     t.reg.Counter(fmt.Sprintf("ru%d.busy_cycles", id)),
			idle:     t.reg.Counter(fmt.Sprintf("ru%d.idle_cycles", id)),
			tiles:    t.reg.Counter(fmt.Sprintf("ru%d.tiles", id)),
			assigned: t.reg.Counter(fmt.Sprintf("sched.assigned.ru%d", id)),
		}
		t.perRU[id] = m
	}
	return m
}

// BeginFrame implements Recorder.
func (t *Trace) BeginFrame(frame int, startCycle int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.frame = frame
	t.frameStart = startCycle
	// Idle gaps are measured within a frame's raster phase only; the
	// inter-frame geometry phase is not RU idleness.
	for k := range t.lastTileEnd {
		delete(t.lastTileEnd, k)
	}
	t.reg.Counter("frames").Inc()
}

// EndFrame implements Recorder.
func (t *Trace) EndFrame(endCycle int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// The load-imbalance tail is idleness: an RU that finished its last tile
	// before the frame's end waited for the stragglers.
	for ru, last := range t.lastTileEnd {
		if endCycle > last {
			t.ru(ru).idle.Add(endCycle - last)
		}
	}
	t.add(Event{
		Name: fmt.Sprintf("frame %d", t.frame),
		Cat:  "frame",
		Ph:   "X",
		Ts:   t.us(t.frameStart),
		Dur:  t.us(endCycle - t.frameStart),
		Pid:  pidFrame,
		Tid:  0,
	})
}

// TileSpan implements Recorder.
func (t *Trace) TileSpan(ru, tile int, start, end int64, quads, dramAccesses int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.ru(ru)
	m.busy.Add(end - start)
	m.tiles.Inc()
	if prev, ok := t.lastTileEnd[ru]; ok && start > prev {
		m.idle.Add(start - prev)
	}
	t.lastTileEnd[ru] = end
	t.ruSeen[ru] = true
	t.reSeen++
	if t.reSkipped > 0 {
		t.reg.Gauge("re.hit_ratio").Set(float64(t.reSkipped) / float64(t.reSkipped+t.reSeen))
	}
	t.add(Event{
		Name: fmt.Sprintf("tile %d", tile),
		Cat:  "tile",
		Ph:   "X",
		Ts:   t.us(start),
		Dur:  t.us(end - start),
		Pid:  pidRU,
		Tid:  ru,
		Args: tileArgs{Dram: dramAccesses, Quads: quads, Tile: tile},
	})
}

// TileSkipped implements Recorder. The re.* counter and gauge first appear
// here — a run that never skips exports traces and metrics byte-identical to
// a build without Rendering Elimination.
func (t *Trace) TileSkipped(ru, tile int, cycle int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reSkipped++
	t.reg.Counter("re.tiles_skipped").Inc()
	t.reg.Gauge("re.hit_ratio").Set(float64(t.reSkipped) / float64(t.reSkipped+t.reSeen))
	t.ruSeen[ru] = true
	t.add(Event{
		Name: fmt.Sprintf("skip tile %d", tile),
		Cat:  "re",
		Ph:   "i",
		S:    "t",
		Ts:   t.us(cycle),
		Pid:  pidRU,
		Tid:  ru,
		Args: skipArgs{Tile: tile},
	})
}

// TileAssigned implements Recorder.
func (t *Trace) TileAssigned(ru, tile int) {
	t.mu.Lock()
	m := t.ru(ru)
	t.mu.Unlock()
	m.assigned.Inc()
	t.reg.Counter("sched.assigned").Inc()
}

// SchedDecision implements Recorder.
func (t *Trace) SchedDecision(cycle int64, policy, order string, supertile int) {
	t.reg.Counter("sched.decisions").Inc()
	t.reg.Counter("sched.order." + order).Inc()
	t.reg.Gauge("sched.supertile").Set(float64(supertile))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(Event{
		Name: fmt.Sprintf("%s order=%s st=%d", policy, order, supertile),
		Cat:  "sched",
		Ph:   "i",
		S:    "g",
		Ts:   t.us(cycle),
		Pid:  pidFrame,
		Tid:  0,
	})
}

// DRAMAccess implements Recorder.
func (t *Trace) DRAMAccess(channel, bank int, start, done int64, write, rowHit bool, queueDepth int) {
	if write {
		t.reg.Counter("dram.writes").Inc()
	} else {
		t.reg.Counter("dram.reads").Inc()
	}
	if rowHit {
		t.reg.Counter("dram.row_hits").Inc()
	} else {
		t.reg.Counter("dram.row_misses").Inc()
	}
	t.dramReqs.Observe(start, 1)
	t.qdSum.Observe(start, float64(queueDepth))
	t.qdCount.Observe(start, 1)

	tid := channel*bankTidStride + bank
	t.mu.Lock()
	defer t.mu.Unlock()
	bh, ok := t.bankHists[tid]
	if !ok {
		bh = t.reg.Histogram(fmt.Sprintf("dram.ch%d.bank%d.requests", channel, bank), t.cfg.MetricsInterval)
		t.bankHists[tid] = bh
	}
	bh.Observe(start, 1)
	t.bankSeen[tid] = true
	name := "read"
	if write {
		name = "write"
	}
	t.add(Event{
		Name: name,
		Cat:  "dram",
		Ph:   "X",
		Ts:   t.us(start),
		Dur:  t.us(done - start),
		Pid:  pidDRAM,
		Tid:  tid,
		Args: dramArgs{Queue: queueDepth, RowHit: rowHit},
	})
	t.add(Event{
		Name: fmt.Sprintf("dram queue ch%d", channel),
		Ph:   "C",
		Ts:   t.us(start),
		Pid:  pidDRAM,
		Tid:  0,
		Args: depthArgs{Depth: queueDepth},
	})
}

// CacheAccess implements Recorder.
func (t *Trace) CacheAccess(level CacheLevel, cycle int64, hit bool) {
	var hits, misses *IntervalHistogram
	if level == CacheL2 {
		hits, misses = t.l2Hits, t.l2Misses
	} else {
		hits, misses = t.l1Hits, t.l1Misses
	}
	if hit {
		hits.Observe(cycle, 1)
	} else {
		misses.Observe(cycle, 1)
	}
}

// ExportMetrics writes the registry snapshot as indented JSON.
func (t *Trace) ExportMetrics(w io.Writer) error {
	raw, err := t.reg.Snapshot().JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// ExportChromeTrace writes everything recorded so far as Chrome trace-event
// JSON (object format), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing: process/thread metadata, the recorded spans/instants/
// counters, and L1/L2 hit-rate counter tracks derived from the registry.
// When the MaxEvents cap dropped events, their count is the
// "dropped_events" entry of the trace's otherData, so a truncated trace
// says so.
func (t *Trace) ExportChromeTrace(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	head := `{"displayTimeUnit":"ms",`
	if t.dropped > 0 {
		head += fmt.Sprintf(`"otherData":{"dropped_events":%d},`, t.dropped)
	}
	if _, err := bw.WriteString(head + `"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev Event) error {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(raw)
		return err
	}
	for _, ev := range t.metadataEvents() {
		if err := emit(ev); err != nil {
			return err
		}
	}
	for _, ev := range t.events {
		if err := emit(ev); err != nil {
			return err
		}
	}
	for _, ev := range t.hitRateEvents("L1 hit %", t.l1Hits, t.l1Misses) {
		if err := emit(ev); err != nil {
			return err
		}
	}
	for _, ev := range t.hitRateEvents("L2 hit %", t.l2Hits, t.l2Misses) {
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// metadataEvents names the processes and threads of the trace, sorted for a
// deterministic export.
func (t *Trace) metadataEvents() []Event {
	procName := func(pid int, name string) Event {
		return Event{Name: "process_name", Ph: "M", Pid: pid, Args: nameArgs{Name: name}}
	}
	threadName := func(pid, tid int, name string) Event {
		return Event{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: nameArgs{Name: name}}
	}
	out := []Event{
		procName(pidFrame, "frames+scheduler"),
		procName(pidRU, "raster units"),
		procName(pidDRAM, "dram"),
		procName(pidCache, "caches"),
	}
	for _, ru := range sortedKeys(t.ruSeen) {
		out = append(out, threadName(pidRU, ru, fmt.Sprintf("RU %d", ru)))
	}
	for _, tid := range sortedKeys(t.bankSeen) {
		out = append(out, threadName(pidDRAM, tid,
			fmt.Sprintf("ch%d bank%d", tid/bankTidStride, tid%bankTidStride)))
	}
	return out
}

// hitRateEvents derives a hit-percentage counter track from a hits/misses
// histogram pair.
func (t *Trace) hitRateEvents(name string, hits, misses *IntervalHistogram) []Event {
	h, m := hits.Buckets(), misses.Buckets()
	n := len(h)
	if len(m) > n {
		n = len(m)
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		var hv, mv float64
		if i < len(h) {
			hv = h[i]
		}
		if i < len(m) {
			mv = m[i]
		}
		if hv+mv == 0 {
			continue
		}
		out = append(out, Event{
			Name: name,
			Ph:   "C",
			Ts:   t.us(int64(i) * t.cfg.MetricsInterval),
			Pid:  pidCache,
			Tid:  0,
			Args: pctArgs{Pct: 100 * hv / (hv + mv)},
		})
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
