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
package main

import (
	"context"
	"flag"
	"fmt"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	// Ctrl-C / SIGTERM cancels the suite gracefully: in-flight simulations
	// stop at their next frame boundary, finished ones are already persisted
	// (with -result-dir), and a rerun resumes from them.
	cli := experiments.NewCLI(context.Background(), "suite", experiments.DefaultParams())
	cli.RegisterFlags(flag.CommandLine)
	flag.IntVar(&cli.P.Frames, "frames", 8, "frames per game per configuration")
	flag.IntVar(&cli.P.Warmup, "warmup", 2, "warm-up frames excluded from summaries (0 when -frames <= 2)")
	flag.IntVar(&cli.P.ScreenW, "w", cli.P.ScreenW, "screen width")
	flag.IntVar(&cli.P.ScreenH, "h", cli.P.ScreenH, "screen height")
	flag.IntVar(&cli.P.L2KB, "l2kb", cli.P.L2KB, "shared L2 KiB (0 = Table I 2MB)")
	flag.BoolVar(&cli.Quiet, "quiet", false, "suppress the stderr progress/ETA line")
	var (
		which      = flag.String("suite", "all", "all | mem | compute")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto) of one traced run to this path")
		metricsOut = flag.String("metrics-out", "", "write the traced run's metrics registry as JSON to this path")
		traceGame  = flag.String("trace-game", "", "benchmark abbreviation to trace (default: first game of the suite)")
		traceCfg   = flag.String("trace-config", "libra", "configuration to trace: baseline | ptr | libra")
	)
	cli.ParseCommandLine()

	var games []libra.Benchmark
	switch *which {
	case "mem":
		games = libra.MemoryIntensiveBenchmarks()
	case "compute":
		games = libra.ComputeIntensiveBenchmarks()
	case "all":
		games = libra.Benchmarks()
	default:
		cli.Refuse(fmt.Errorf("unknown suite %q (all | mem | compute)", *which))
	}

	// The runner's Baseline, PTR(2) and LIBRA(2), built from the scale
	// here so that a refused configuration leaves no result store behind:
	// cli.Runner opens it.
	p := cli.P
	configs := []struct {
		name string
		cfg  libra.Config
	}{
		{"baseline", p.Apply(libra.Baseline(p.ScreenW, p.ScreenH, experiments.TotalCores))},
		{"ptr", p.Apply(libra.PTR(p.ScreenW, p.ScreenH, 2))},
		{"libra", p.Apply(libra.LIBRA(p.ScreenW, p.ScreenH, 2))},
	}
	for _, c := range configs {
		cli.Refuse(c.cfg.Validate())
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
			cli.Refuse(fmt.Errorf("no run matches -trace-game %q -trace-config %q in this suite", tg, *traceCfg))
		}
		tr = telemetry.NewTrace(telemetry.TraceConfig{})
		tracedCfg := *traced
		cli.Runner().SetTelemetry(func(cfg libra.Config, game string) telemetry.Recorder {
			if game == tg && cfg == tracedCfg {
				return tr
			}
			return nil
		})
	}

	// Every (game, config) simulation, game-major: the table below reads
	// the summaries back by index, independent of scheduling.
	var jobs []experiments.Job
	for _, g := range games {
		for _, c := range configs {
			jobs = append(jobs, experiments.Job{Cfg: c.cfg, Game: g.Abbrev})
		}
	}
	sums := cli.RunAll(jobs)
	cli.ReportStore()

	fmt.Printf("%-5s %-5s", "bench", "class")
	for _, c := range configs {
		fmt.Printf("  %12s", c.name)
	}
	fmt.Printf("  %8s %8s\n", "ptr%", "libra%")

	var ptrSum, libraSum float64
	for gi, g := range games {
		fmt.Printf("%-5s %-5s", g.Abbrev, g.Class)
		cycles := make([]int64, len(configs))
		for ci := range configs {
			cycles[ci] = sums[gi*len(configs)+ci].TotalCycles
			fmt.Printf("  %12d", cycles[ci])
		}
		pg := experiments.GainPct(cycles[0], cycles[1])
		lg := experiments.GainPct(cycles[0], cycles[2])
		ptrSum += pg
		libraSum += lg
		fmt.Printf("  %+8.2f %+8.2f\n", pg, lg)
	}
	fmt.Printf("%-11s", "AVERAGE")
	for range configs {
		fmt.Printf("  %12s", "")
	}
	n := float64(len(games))
	fmt.Printf("  %+8.2f %+8.2f\n", ptrSum/n, libraSum/n)

	if tr != nil {
		experiments.WriteTelemetry(tr, *traceOut, *metricsOut)
	}
}
