// Command suite runs the full 32-game benchmark suite under one or more GPU
// configurations and prints a per-game comparison table — the quickest way
// to see the whole evaluation at a glance.
//
// Simulations fan out over a bounded worker pool (-jobs, default NumCPU);
// results are collected into (game, config)-indexed slots so stdout is
// byte-identical for any -jobs value, and progress/ETA goes to stderr.
//
// With -result-dir (or LIBRA_RESULT_DIR) the suite reads and writes a
// persistent, content-addressed result store: a warm re-run performs zero
// simulations and prints byte-identical output.
//
// Usage:
//
//	suite                          # baseline vs PTR vs LIBRA, all games
//	suite -suite mem -frames 12    # memory-intensive games only
//	suite -jobs 8                  # cap the worker pool
//	suite -result-dir ~/.libra     # persist results across runs
//	suite -experiment ablation-re  # LIBRA vs RE vs LIBRA+RE from the registry
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

func main() {
	var (
		which   = flag.String("suite", "all", "all | mem | compute")
		frames  = flag.Int("frames", 8, "frames per game per configuration")
		warmup  = flag.Int("warmup", 2, "warm-up frames excluded from summaries")
		screenW = flag.Int("w", 640, "screen width")
		screenH = flag.Int("h", 384, "screen height")
		l2kb    = flag.Int("l2kb", 1024, "shared L2 KiB (0 = Table I 2MB)")
		jobs    = flag.Int("jobs", experiments.DefaultJobs(), "concurrent simulations (<=0 = NumCPU, or $LIBRA_JOBS)")
		simWork = flag.Int("sim-workers", experiments.DefaultSimWorkers(), "intra-frame rasterization workers per simulation (1 = serial reference engine, or $LIBRA_SIM_WORKERS); stdout is byte-identical for any value")
		relim   = flag.Bool("render-elim", experiments.DefaultRenderElim(), "enable Rendering Elimination on every configuration (or $LIBRA_RENDER_ELIM); pixels unchanged, coherent frames skip tiles")
		quiet   = flag.Bool("quiet", false, "suppress the stderr progress/ETA line")

		experiment = flag.String("experiment", "", "run one registry experiment (e.g. ablation-re: LIBRA vs RE vs LIBRA+RE) instead of the suite table")

		resultDir = flag.String("result-dir", experiments.DefaultResultDir(), "persistent result store directory (or $LIBRA_RESULT_DIR; empty = store disabled)")

		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto) of one traced run to this path")
		metricsOut = flag.String("metrics-out", "", "write the traced run's metrics registry as JSON to this path")
		traceGame  = flag.String("trace-game", "", "benchmark abbreviation to trace (default: first game of the suite)")
		traceCfg   = flag.String("trace-config", "libra", "configuration to trace: baseline | ptr | libra")
	)
	flag.Parse()

	var games []libra.Benchmark
	switch *which {
	case "mem":
		games = libra.MemoryIntensiveBenchmarks()
	case "compute":
		games = libra.ComputeIntensiveBenchmarks()
	case "all":
		games = libra.Benchmarks()
	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q\n", *which)
		os.Exit(1)
	}

	withL2 := func(c libra.Config) libra.Config {
		c.L2KB = *l2kb
		c.SimWorkers = *simWork
		c.RenderElim = *relim
		return c
	}
	configs := []struct {
		name string
		cfg  libra.Config
	}{
		{"baseline", withL2(libra.Baseline(*screenW, *screenH, 8))},
		{"ptr", withL2(libra.PTR(*screenW, *screenH, 2))},
		{"libra", withL2(libra.LIBRA(*screenW, *screenH, 2))},
	}

	// Ctrl-C / SIGTERM cancels the suite gracefully: in-flight simulations
	// stop at their next frame boundary, finished ones are already persisted
	// (with -result-dir), and a rerun resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The runner supplies the in-memory singleflight cache and, when
	// -result-dir is set, the persistent layer under it.
	runner := experiments.NewRunner(experiments.Params{
		ScreenW: *screenW, ScreenH: *screenH,
		Frames: *frames, Warmup: *warmup,
		L2KB: *l2kb, SimWorkers: *simWork,
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

	// -experiment delegates to the shared registry (the same drivers
	// cmd/librasim exposes), reusing this invocation's runner — so the
	// result store, Ctrl-C handling and -jobs/-sim-workers/-render-elim
	// parameters all apply unchanged.
	if *experiment != "" {
		fn, ok := runner.Registry()[*experiment]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (librasim -experiment lists the registry)\n", *experiment)
			os.Exit(1)
		}
		runner.SetJobs(*jobs)
		res := func() *experiments.Result {
			// Run panics on failure, including a Ctrl-C surfacing at a frame
			// boundary; convert that one case into the conventional exit 130.
			defer func() {
				if p := recover(); p != nil {
					if ctx.Err() != nil {
						fmt.Fprintln(os.Stderr, "suite: interrupted; completed simulations are in the result store")
						os.Exit(130)
					}
					panic(p)
				}
			}()
			return fn()
		}()
		fmt.Println(res.Table())
		return
	}

	// One (game, config) pair may carry the telemetry recorder; its trace
	// is written after the pool drains. Store hits are not re-simulated and
	// record nothing — trace against a cold key (or no -result-dir).
	var tr *telemetry.Trace
	if *traceOut != "" || *metricsOut != "" {
		tg := *traceGame
		if tg == "" && len(games) > 0 {
			tg = games[0].Abbrev
		}
		var traced *libra.Config
		for _, g := range games {
			for ci, c := range configs {
				if g.Abbrev == tg && c.name == *traceCfg {
					traced = &configs[ci].cfg
				}
			}
		}
		if traced == nil {
			fmt.Fprintf(os.Stderr, "no run matches -trace-game %q -trace-config %q in this suite\n", tg, *traceCfg)
			os.Exit(1)
		}
		tr = telemetry.NewTrace(telemetry.TraceConfig{})
		tracedCfg := *traced
		runner.SetTelemetry(func(cfg libra.Config, game string) telemetry.Recorder {
			if game == tg && cfg == tracedCfg {
				return tr
			}
			return nil
		})
	}

	// Fan all (game, config) simulations out to the pool; each job writes
	// only its own slot so the table below is independent of scheduling.
	summaries := make([][]libra.Summary, len(games))
	errs := make([][]error, len(games))
	for i := range games {
		summaries[i] = make([]libra.Summary, len(configs))
		errs[i] = make([]error, len(configs))
	}
	var progw *experiments.Progress
	if !*quiet {
		progw = experiments.NewProgress(os.Stderr, "suite", len(games)*len(configs))
	}
	pool := experiments.NewPool(*jobs)
	pool.ForEach(len(games)*len(configs), func(j int) {
		gi, ci := j/len(configs), j%len(configs)
		run, err := runner.TryRun(configs[ci].cfg, games[gi].Abbrev)
		if err != nil {
			errs[gi][ci] = err
		} else {
			summaries[gi][ci] = run.Summary
		}
		progw.Done()
	})
	if ctx.Err() != nil {
		// Cancelled: flush the final progress state (the throttle may have
		// swallowed the last Done) and exit with the conventional 130.
		progw.Abort()
		fmt.Fprintln(os.Stderr, "suite: interrupted; completed runs are in the result store")
		os.Exit(130)
	}
	progw.Finish()
	for gi := range games {
		for ci := range configs {
			if err := errs[gi][ci]; err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if st := runner.Store(); st != nil {
		// One stderr line so scripts (and make store-smoke) can assert a
		// warm run performed zero simulations; stdout stays byte-identical.
		c := st.Metrics()
		fmt.Fprintf(os.Stderr, "store: hits=%d misses=%d corrupt=%d sims=%d\n",
			c.Counter(resultstore.MetricHit).Value(),
			c.Counter(resultstore.MetricMiss).Value(),
			c.Counter(resultstore.MetricCorrupt).Value(),
			runner.Sims())
	}

	fmt.Printf("%-5s %-5s", "bench", "class")
	for _, c := range configs {
		fmt.Printf("  %12s", c.name)
	}
	fmt.Printf("  %8s %8s\n", "ptr%", "libra%")

	var ptrGain, libraGain []float64
	for gi, g := range games {
		fmt.Printf("%-5s %-5s", g.Abbrev, g.Class)
		var cycles []int64
		for ci := range configs {
			s := summaries[gi][ci]
			cycles = append(cycles, s.TotalCycles)
			fmt.Printf("  %12d", s.TotalCycles)
		}
		pg := gainPct(cycles[0], cycles[1])
		lg := gainPct(cycles[0], cycles[2])
		ptrGain = append(ptrGain, pg)
		libraGain = append(libraGain, lg)
		fmt.Printf("  %+8.2f %+8.2f\n", pg, lg)
	}
	fmt.Printf("%-11s", "AVERAGE")
	for range configs {
		fmt.Printf("  %12s", "")
	}
	fmt.Printf("  %+8.2f %+8.2f\n", mean(ptrGain), mean(libraGain))

	if tr != nil {
		write := func(path string, export func(io.Writer) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err == nil {
				err = export(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		write(*traceOut, tr.ExportChromeTrace)
		write(*metricsOut, tr.ExportMetrics)
	}
}

// gainPct is the speedup of over vs base as a percentage; a zero-cycle run
// (an empty frame window) reports 0 rather than NaN/Inf so the table and its
// average stay finite.
func gainPct(base, over int64) float64 {
	if over == 0 {
		return 0
	}
	return (float64(base)/float64(over) - 1) * 100
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
