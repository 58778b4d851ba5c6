// Command simbench is the LIBRA simulator's benchmark. Each workload is a
// closed loop that runs one simulation at a time at librasim's default
// configuration (LIBRA, 2 Raster Units x 4 cores, 640x384, 1 MB L2) with the
// serial engine, times a fixed number of operations after its set-up, checks
// every operation's output against properties the simulator must have, and
// prints one JSON result line. See README.md.
//
//	simbench --workload frame-sus --seed 7 --seconds 20 --trace 0
//	simbench steady -runs 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seedSet  bool // false: every profile keeps its own layout seed
	seconds  int
	trace    bool
	spans    string // where a traced run writes its spans
	ops      int    // timed ops; 0 derives the count from seconds (tests set it)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "steady" {
		return steady(args[1:], stdout, stderr)
	}
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	return runAndPrint(o, stdout, stderr)
}

// runAndPrint runs the benchmark and prints its result line; the exit code is
// nonzero if the run could not finish or any op failed.
func runAndPrint(o options, stdout, stderr io.Writer) int {
	res, err := runBench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 0, "layout seed replacing the profile's own (default: the profile's seed, as librasim renders)")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal run length; fixes the op count through the workload's nominal rate")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })
	if _, ok := specs[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return o, errors.New("-seconds must be positive")
	}
	if o.trace {
		o.spans = filepath.Join(".bench_build", "simbench", "spans-"+o.workload+".json")
	}
	return o, nil
}

// spec describes one workload: how to build it and how many ops one nominal
// second of --seconds buys. The rate is a constant, not a measurement, so a
// run's op count — and with it every sim_ metric — depends only on the
// arguments: both sides of a comparison simulate identical frames.
type spec struct {
	opsPerSec float64
	newBench  func(o options) (bench, error)
}

var specs = map[string]spec{
	"frame-sus": {
		opsPerSec: 8,
		newBench:  func(o options) (bench, error) { return newFrameBench("SuS", false, o) },
	},
	"frame-anb-re": {
		opsPerSec: 20,
		newBench:  func(o options) (bench, error) { return newFrameBench("AnB", true, o) },
	},
	"replay-sus": {
		opsPerSec: 6.4,
		newBench:  newReplayBench,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runGames is how many simulations a run sets up, one after another, each
// with its own layout seed (see gameSeed). A run's ops are runGames equal
// segments, segment g on simulation g, which is set up just before its
// segment and dropped after it, so one simulation is alive at a time.
// Spreading a run's frames over several layouts keeps the simulated metrics
// of runs with different seeds close, and the set-ups' median is setup_s.
const runGames = 16

// gameSeed is the layout seed of a run's simulation g: the run's seed (the
// profile's own unless --seed is given) for g = 0, so a default run's first
// simulation renders librasim's frames, and far-apart seeds for the others,
// so runs with neighbouring seeds share no layout.
func gameSeed(p workloads.Profile, g int) int64 { return p.Seed + int64(g)*1000003 }

// bench is one workload's closed loop over runGames simulations, run one at
// a time.
type bench interface {
	// setUp replaces the current simulation with simulation g: it builds
	// g's game and GPU and renders its discarded warm-up frames (for
	// replay, also captures and encodes its trace). Each call is one timed
	// set-up.
	setUp(g int)
	// checkSetUp checks the current set-up's outputs; it is not timed.
	checkSetUp() error
	// round is how many ops one whole round of distinct operations holds,
	// over all simulations; a multiple of runGames.
	round() int
	// op runs op i on the current simulation, timing only the simulator
	// calls, then checks it. A simulation's ops have consecutive i.
	op(i int, tr *tracer, lc *layerCounts) (opSample, error)
	// drop releases the current simulation.
	drop()
	// framesPerOp is how many frames one op renders or re-times.
	framesPerOp() int
}

// opSample is the host cost of one op's timed calls and what they simulated.
type opSample struct {
	dur        time.Duration // process CPU time
	scale      float64       // multiplies dur to the reference host's speed
	wall       time.Duration
	allocBytes uint64
	gcs        uint32
	cycles     float64 // simulated cycles per frame
	dram       float64 // simulated DRAM accesses per frame
}

// cpuTime reads the process's CPU clock: the time its threads (the
// simulation and the Go runtime's GC workers alike) spent on a CPU. Unlike
// the wall clock it excludes the time a virtual CPU is taken away from the
// guest (steal), which on a shared host moves with other tenants' load,
// not with the program.
func cpuTime() time.Duration { return clockTime(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPUTime reads the calling thread's CPU clock.
func threadCPUTime() time.Duration { return clockTime(3) } // CLOCK_THREAD_CPUTIME_ID

func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// meter brackets a timed region: Go heap allocation and GC cycles are read
// outside the clock reads, so their stop-the-world cost is not timed.
type meter struct {
	ms    runtime.MemStats
	alloc uint64
	gcs   uint32
	cpu0  time.Duration
	wall0 time.Time
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms)
	m.alloc, m.gcs = m.ms.TotalAlloc, m.ms.NumGC
	m.wall0 = time.Now()
	m.cpu0 = cpuTime()
}

func (m *meter) stop() opSample {
	cpu := cpuTime() - m.cpu0
	wall := time.Since(m.wall0)
	runtime.ReadMemStats(&m.ms)
	return opSample{dur: cpu, wall: wall, allocBytes: m.ms.TotalAlloc - m.alloc, gcs: m.ms.NumGC - m.gcs}
}

// simConfig is librasim's default single-run configuration: LIBRA with 2
// Raster Units x 4 cores at the experiments' default screen and L2 size, and
// the serial engine (no host-parallelism knob is set).
func simConfig(mode core.Mode, renderElim bool) core.Config {
	p := experiments.DefaultParams()
	cfg := core.LIBRAConfig(p.ScreenW, p.ScreenH, 2)
	cfg.Mode = mode
	cfg.L2.SizeBytes = p.L2KB * 1024
	cfg.RenderElim = renderElim
	return cfg
}

// profile returns the named game profile, its layout seed replaced when set.
func profile(abbrev string, seed int64, seedSet bool) (workloads.Profile, error) {
	p, err := workloads.ByAbbrev(abbrev)
	if err != nil {
		return p, err
	}
	if seedSet {
		p.Seed = seed
	}
	return p, nil
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount is the run's number of timed ops: whole rounds, at least two of
// them (so every replay pair is re-run and compared), and enough that ten
// samples lie beyond p90.
func opCount(o options, b bench) int {
	n := o.ops
	if n == 0 {
		n = int(float64(o.seconds)*specs[o.workload].opsPerSec + 0.5)
		if n < 100 {
			n = 100
		}
	}
	r := b.round()
	n = (n + r - 1) / r * r
	if n < 2*r {
		n = 2 * r
	}
	return n
}

func runBench(o options, stderr io.Writer) (result, error) {
	// The yardstick reads its thread's CPU clock, so the run stays on one
	// thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	b, err := specs[o.workload].newBench(o)
	if err != nil {
		return result{}, err
	}
	var tr *tracer
	var lc *layerCounts
	if o.trace {
		tr = newTracer()
		lc = &layerCounts{}
	}
	n := opCount(o, b)
	samples := make([]opSample, 0, n)
	setupS := make([]float64, 0, runGames)
	yard, yardMS := new(yardstick), make([]float64, 0, n)
	failed := 0
	for g := 0; g < runGames; g++ {
		t0 := cpuTime()
		b.setUp(g)
		setup := (cpuTime() - t0).Seconds()
		if err := b.checkSetUp(); err != nil {
			return result{}, fmt.Errorf("set-up %d check: %w", g, err)
		}
		first, firstYard := len(samples), len(yardMS)
		for i := g * n / runGames; i < (g+1)*n/runGames; i++ {
			s, err := b.op(i, tr, lc)
			yardMS = append(yardMS, yard.millis())
			if err != nil {
				failed++
				fmt.Fprintf(stderr, "simbench: %s op %d: %v\n", o.workload, i, err)
				continue
			}
			samples = append(samples, s)
		}
		// The set-up and the ops of one simulation are scaled by the
		// yardstick's median over those ops, so a run in which the host's
		// speed shifts scales each simulation by its own host speed.
		scale := yardstickRefMS / median(yardMS[firstYard:])
		setupS = append(setupS, setup*scale)
		for i := first; i < len(samples); i++ {
			samples[i].scale = scale
		}
		// Collect the dropped simulation before the next set-up, so each
		// set-up starts from a heap holding none, as a fresh process's
		// does, and peak_rss_mb measures one simulation, not whichever
		// leftovers the last GC cycle happened to keep.
		b.drop()
		runtime.GC()
	}
	var cpu, wall time.Duration
	for _, s := range samples {
		cpu += s.dur
		wall += s.wall
	}
	yardMedian := median(yardMS)
	scale := yardstickRefMS / yardMedian // the run's, for the span times
	seed := "profile's own"
	if o.seedSet {
		seed = fmt.Sprint(o.seed)
	}
	fmt.Fprintf(stderr, "simbench: %s seed=%s ops=%d failed=%d yardstick=%.3fms scale=%.3f op cpu/wall=%.3f\n",
		o.workload, seed, n, failed, yardMedian, scale, cpu.Seconds()/wall.Seconds())

	res := result{Correct: true, Attempted: n, Failed: failed}
	if len(samples) == 0 {
		res.Correct = false
		return res, nil
	}
	if o.trace {
		if err := tr.write(o.spans); err != nil {
			return result{}, err
		}
		res.Metrics = perLayerMetrics(tr, lc, len(samples), yardMedian, scale)
	} else {
		res.Metrics = endToEndMetrics(samples, setupS, b.framesPerOp())
	}
	return res, nil
}

// endToEndUnits names every end-to-end metric with its unit (perLayerUnits
// the per-layer ones); the tests hold BENCHMARK.json to exactly these.
var endToEndUnits = map[string]string{
	"setup_s":                     "s",
	"frames_per_s":                "1/s",
	"op_ms_p50":                   "ms",
	"op_ms_p90":                   "ms",
	"peak_rss_mb":                 "MB",
	"alloc_kb_per_op":             "KB",
	"sim_cycles_per_frame":        "cycles",
	"sim_dram_accesses_per_frame": "count",
}

// endToEndMetrics computes the end-to-end metrics from the ops' samples and
// the set-up times, both already scaled (see yardstick).
func endToEndMetrics(samples []opSample, setupS []float64, framesPerOp int) map[string]metric {
	ms := make([]float64, len(samples))
	var totalMS float64
	var alloc uint64
	var cycles, dram float64
	for i, s := range samples {
		ms[i] = float64(s.dur.Nanoseconds()) / 1e6 * s.scale
		totalMS += ms[i]
		alloc += s.allocBytes
		cycles += s.cycles
		dram += s.dram
	}
	n := float64(len(samples))
	m := map[string]float64{
		"setup_s":                     median(setupS),
		"frames_per_s":                n * float64(framesPerOp) / (totalMS / 1e3),
		"op_ms_p50":                   median(ms),
		"op_ms_p90":                   quantiles(ms, 10)[8],
		"peak_rss_mb":                 peakRSSMB(),
		"alloc_kb_per_op":             float64(alloc) / 1024 / n,
		"sim_cycles_per_frame":        cycles / n,
		"sim_dram_accesses_per_frame": dram / n,
	}
	return withUnits(m, endToEndUnits)
}

func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: values[name], Unit: unit}
	}
	return out
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
