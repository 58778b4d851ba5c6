// Command sweep runs hardware parameter sweeps on one benchmark: shader
// cores, Raster Units or L2 capacity, printing cycles and derived metrics
// per point — the tool behind sensitivity studies like Figs. 4 and 18.
//
// Sweep points are simulated concurrently on a bounded worker pool (-jobs);
// output is collected per point index, so stdout is byte-identical for any
// -jobs value. With -result-dir (or LIBRA_RESULT_DIR) points are recalled
// from the persistent result store, so an interrupted sweep resumes from
// the points it already simulated instead of restarting.
//
// Usage:
//
//	sweep -game CCS -axis cores -values 2,4,8,16
//	sweep -game SuS -axis rus   -values 1,2,3,4
//	sweep -game HoW -axis l2kb  -values 256,512,1024,2048
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/resultstore"
)

func main() {
	var (
		game    = flag.String("game", "CCS", "benchmark abbreviation")
		axis    = flag.String("axis", "cores", "sweep axis: cores | rus | l2kb")
		values  = flag.String("values", "", "comma-separated sweep values (defaults per axis)")
		policy  = flag.String("policy", "libra", "scheduler policy")
		frames  = flag.Int("frames", 8, "frames per point")
		screenW = flag.Int("w", 640, "screen width")
		screenH = flag.Int("h", 384, "screen height")
		jobs    = flag.Int("jobs", experiments.DefaultJobs(), "concurrent simulations (<=0 = NumCPU, or $LIBRA_JOBS)")
		simWork = flag.Int("sim-workers", experiments.DefaultSimWorkers(), "intra-frame rasterization workers per simulation (1 = serial reference engine, or $LIBRA_SIM_WORKERS); stdout is byte-identical for any value")
		relim   = flag.Bool("render-elim", experiments.DefaultRenderElim(), "enable Rendering Elimination at every sweep point (or $LIBRA_RENDER_ELIM)")
		quiet   = flag.Bool("quiet", false, "suppress the stderr progress/ETA line")

		resultDir = flag.String("result-dir", experiments.DefaultResultDir(), "persistent result store directory (or $LIBRA_RESULT_DIR; empty = store disabled)")
	)
	flag.Parse()

	defaults := map[string]string{
		"cores": "2,4,8,16",
		"rus":   "1,2,3,4",
		"l2kb":  "256,512,1024,2048",
	}
	spec := *values
	if spec == "" {
		spec = defaults[*axis]
	}
	if spec == "" {
		fmt.Fprintf(os.Stderr, "unknown axis %q\n", *axis)
		os.Exit(1)
	}
	var points []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		points = append(points, v)
	}

	// Ctrl-C / SIGTERM cancels the sweep gracefully: every in-flight point
	// stops at its next frame boundary, completed points are already in the
	// store (if one is attached), and a rerun resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The runner supplies the in-memory singleflight cache and, when
	// -result-dir is set, the persistent layer that lets an interrupted
	// sweep resume from its completed points.
	runner := experiments.NewRunner(experiments.Params{
		ScreenW: *screenW, ScreenH: *screenH,
		Frames: *frames, Warmup: 2,
		SimWorkers: *simWork,
		RenderElim: *relim,
	})
	runner.SetContext(ctx)
	if *resultDir != "" {
		st, err := resultstore.Open(*resultDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runner.SetStore(st)
	}

	// Fan the sweep points out to the pool; each point writes only its own
	// slot so the printed order (and the point-0 normalization) is stable.
	summaries := make([]libra.Summary, len(points))
	errs := make([]error, len(points))
	var progw *experiments.Progress
	if !*quiet {
		progw = experiments.NewProgress(os.Stderr, "sweep", len(points))
	}
	experiments.NewPool(*jobs).ForEach(len(points), func(i int) {
		v := points[i]
		cfg := libra.DefaultConfig(*screenW, *screenH)
		cfg.Policy = libra.Policy(*policy)
		cfg.L2KB = 1024
		cfg.SimWorkers = *simWork
		cfg.RenderElim = *relim
		cfg.RasterUnits = 2
		cfg.CoresPerRU = 4
		switch *axis {
		case "cores":
			cfg.RasterUnits = 1
			cfg.CoresPerRU = v
			cfg.Policy = libra.PolicyZOrder
		case "rus":
			cfg.RasterUnits = v
			if v == 1 {
				cfg.Policy = libra.PolicyZOrder
			}
		case "l2kb":
			cfg.L2KB = v
		}
		run, err := runner.TryRun(cfg, *game)
		if err != nil {
			errs[i] = err
			progw.Done()
			return
		}
		summaries[i] = run.Summary
		progw.Done()
	})
	if ctx.Err() != nil {
		// Cancelled: flush the final progress state (the throttle may have
		// swallowed the last Done) and exit with the conventional 130.
		progw.Abort()
		fmt.Fprintln(os.Stderr, "sweep: interrupted; completed points are in the result store")
		os.Exit(130)
	}
	progw.Finish()
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if st := runner.Store(); st != nil {
		c := st.Metrics()
		fmt.Fprintf(os.Stderr, "store: hits=%d misses=%d corrupt=%d sims=%d\n",
			c.Counter(resultstore.MetricHit).Value(),
			c.Counter(resultstore.MetricMiss).Value(),
			c.Counter(resultstore.MetricCorrupt).Value(),
			runner.Sims())
	}

	fmt.Printf("%s sweep on %s (%s policy, %dx%d)\n", *axis, *game, *policy, *screenW, *screenH)
	fmt.Printf("%8s %12s %8s %8s %8s %10s\n", *axis, "cycles", "fps", "texHit", "texLat", "energy uJ")
	base := summaries[0].TotalCycles
	for i, v := range points {
		s := summaries[i]
		fmt.Printf("%8d %12d %8.1f %8.3f %8.1f %10.0f   (%+.1f%%)\n",
			v, s.TotalCycles, s.AvgFPS, s.AvgTexHit, s.AvgTexLatency, s.EnergyUJ,
			gainPct(base, s.TotalCycles))
	}
}

// gainPct is the speedup of over vs base as a percentage; a zero-cycle run
// reports 0 rather than NaN/Inf so the normalization column stays finite.
func gainPct(base, over int64) float64 {
	if over == 0 {
		return 0
	}
	return (float64(base)/float64(over) - 1) * 100
}
