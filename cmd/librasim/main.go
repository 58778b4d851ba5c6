// Command librasim runs the LIBRA GPU simulator: single benchmark runs with
// any scheduler configuration, or any of the paper's experiments (figures
// and tables) end to end.
//
// Usage:
//
//	librasim -list                          # show the benchmark suite
//	librasim -game SuS -policy libra -rus 2 -frames 10
//	librasim -experiment fig11              # reproduce one figure
//	librasim -experiment all                # reproduce every figure/table
//	librasim -experiment fig11 -paper       # full FHD/25-frame scale (slow)
//	librasim -experiment fig11 -w 320 -h 192 -frames 6 -l2kb 256  # reduced scale
//	librasim -experiment all -result-dir ~/.libra  # persist/recall results
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	// Ctrl-C / SIGTERM aborts at the next frame boundary instead of killing
	// the process mid-frame.
	cli := experiments.NewCLI(context.Background(), "librasim", experiments.DefaultParams())
	cli.RegisterFlags(flag.CommandLine)
	// Given with -experiment, each scale flag overrides the experiment scale.
	flag.IntVar(&cli.P.Frames, "frames", 10, "frames to render (-experiment: 12, or 25 with -paper)")
	flag.IntVar(&cli.P.ScreenW, "w", cli.P.ScreenW, "screen width")
	flag.IntVar(&cli.P.ScreenH, "h", cli.P.ScreenH, "screen height")
	flag.IntVar(&cli.P.L2KB, "l2kb", cli.P.L2KB, "shared L2 size in KiB (0 = Table I 2MB)")
	var (
		list       = flag.Bool("list", false, "list the benchmark suite and exit")
		game       = flag.String("game", "", "benchmark abbreviation for a single run (see -list)")
		policy     = flag.String("policy", "libra", "scheduler policy: "+experiments.PolicyHelp())
		rus        = flag.Int("rus", 2, "raster units (single run)")
		cores      = flag.Int("cores", 4, "cores per raster unit (single run)")
		experiment = flag.String("experiment", "", "experiment id (fig01..fig19b, table02, ranking) or 'all'")
		paper      = flag.Bool("paper", false, "run experiments at the paper's full FHD scale (slow)")
		format     = flag.String("format", "table", "experiment output format: table | markdown | json")
		heat       = flag.Bool("heatmap", false, "print the per-tile DRAM heatmap of the last frame (single run)")
		screenshot = flag.String("screenshot", "", "write the last rendered frame as a PPM image to this path (single run)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto) to this path; for -experiment, traces the first simulation")
		metricsOut = flag.String("metrics-out", "", "write the telemetry metrics registry as JSON to this path")
		jsonOut    = flag.Bool("json", false, "single run: print the canonical GameRun JSON (the exact bytes libraserve's /v1/run returns for the same request) instead of the frame table")
	)
	cli.ParseCommandLine()

	switch {
	case *list:
		printSuite()
	case *experiment != "":
		cli.P = experimentParams(cli.P, *paper)
		// Every configuration an experiment runs has this screen and L2.
		cli.Refuse(cli.P.Apply(libra.DefaultConfig(cli.P.ScreenW, cli.P.ScreenH)).Validate())
		cli.Refuse(checkExperiment(cli.P, *experiment, *format))
		runExperiments(cli, *experiment, *format, *traceOut, *metricsOut)
	case *game != "":
		cfg := cli.P.Apply(libra.DefaultConfig(cli.P.ScreenW, cli.P.ScreenH))
		cfg.RasterUnits = *rus
		cfg.CoresPerRU = *cores
		cfg.Policy = libra.Policy(*policy)
		singleRun(cli, cli.NewRun(cfg, *game), *heat, *jsonOut, *screenshot, *traceOut, *metricsOut)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// experimentParams returns the scale of an -experiment run: the standard
// one (the paper's with -paper), with each of -w, -h, -frames and -l2kb
// given on the command line taking its value from given. A given -frames
// brings the warm-up Parse gave it. -render-elim always comes from given.
func experimentParams(given experiments.Params, paper bool) experiments.Params {
	p := experiments.DefaultParams()
	if paper {
		p = experiments.PaperParams()
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "w":
			p.ScreenW = given.ScreenW
		case "h":
			p.ScreenH = given.ScreenH
		case "frames":
			p.Frames, p.Warmup = given.Frames, given.Warmup
		case "l2kb":
			p.L2KB = given.L2KB
		}
	})
	p.RenderElim = given.RenderElim
	return p
}

// checkExperiment reports an error unless id names an experiment, or is
// "all", and format is one runExperiments prints. It opens no result store.
func checkExperiment(p experiments.Params, id, format string) error {
	switch format {
	case "table", "markdown", "json":
	default:
		return fmt.Errorf("unknown format %q (table | markdown | json)", format)
	}
	r := experiments.NewRunner(p)
	if _, ok := r.Registry()[id]; !ok && id != "all" {
		return fmt.Errorf("unknown experiment %q (%s | all)", id, strings.Join(r.ExperimentIDs(), " | "))
	}
	return nil
}

func printSuite() {
	fmt.Printf("%-5s %-22s %-5s %-6s %s\n", "abbr", "name", "class", "mem?", "footprint")
	for _, b := range libra.Benchmarks() {
		mi := ""
		if b.MemoryIntensive {
			mi = "yes"
		}
		fmt.Printf("%-5s %-22s %-5s %-6s %.1f MB\n", b.Abbrev, b.Name, b.Class, mi, b.FootprintMB)
	}
}

func singleRun(cli *experiments.CLI, run *libra.Run, heat, jsonOut bool, screenshot, traceOut, metricsOut string) {
	cfg, game := run.Config(), run.Benchmark()
	var tr *telemetry.Trace
	if traceOut != "" || metricsOut != "" {
		tr = telemetry.NewTrace(telemetry.TraceConfig{ClockHz: cfg.ClockHz})
		run.SetRecorder(tr)
	}
	if !jsonOut {
		fmt.Printf("%s on %dx%d, %d RU x %d cores, policy=%s\n", game, cfg.ScreenW, cfg.ScreenH, cfg.RasterUnits, cfg.CoresPerRU, cfg.Policy)
	}
	frames := cli.P.Frames
	var results []libra.FrameResult
	for i := 0; i < frames; i++ {
		if cerr := cli.Context().Err(); cerr != nil {
			fmt.Fprintf(os.Stderr, "librasim: interrupted at frame boundary %d/%d\n", i, frames)
			os.Exit(130)
		}
		f := run.RenderFrame()
		results = append(results, f)
		if !jsonOut {
			fmt.Printf("frame %2d: %9d cycles  %6.1f fps  order=%-11s st=%-2d texHit=%.3f texLat=%5.1f dram=%7d energy=%7.0fuJ\n",
				f.Frame, f.TotalCycles, f.FPS, f.Order, f.Supertile, f.TexHitRatio, f.AvgTexLatency, f.DRAMAccesses, f.Energy.Total)
		}
	}
	summary := libra.Summarize(results, cli.P.Warmup)
	if jsonOut {
		// The canonical encoding: the same bytes libraserve's /v1/run
		// returns for this (game, config, frames, warmup) request — the CI
		// smoke test byte-diffs the two.
		gr := &experiments.GameRun{Game: game, Frames: results, Summary: summary}
		if err := gr.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Println("summary:", summary)
	}
	if heat && len(results) > 0 {
		fmt.Println("per-tile DRAM heatmap (last frame):")
		fmt.Print(libra.HeatmapASCII(results[len(results)-1].TileDRAM))
	}
	if screenshot != "" {
		if err := os.WriteFile(screenshot, run.FramePPM(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", screenshot)
	}
	if tr != nil {
		experiments.WriteTelemetry(tr, traceOut, metricsOut)
	}
}

func runExperiments(cli *experiments.CLI, id, format, traceOut, metricsOut string) {
	r := cli.Runner()
	// With -trace-out/-metrics-out, capture the first simulation the
	// experiment executes (one frame sequence keeps the trace readable).
	var tr *telemetry.Trace
	if traceOut != "" || metricsOut != "" {
		tr = telemetry.NewTrace(telemetry.TraceConfig{})
		var claimed atomic.Bool
		r.SetTelemetry(func(cfg libra.Config, game string) telemetry.Recorder {
			if claimed.CompareAndSwap(false, true) {
				return tr
			}
			return nil
		})
	}
	render := func(res *experiments.Result) {
		switch format {
		case "markdown":
			fmt.Print(res.Markdown())
		case "json":
			raw, err := res.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(string(raw))
		default:
			fmt.Println(res.Table())
		}
	}
	if id == "all" {
		for _, k := range r.ExperimentIDs() {
			start := time.Now()
			render(cli.Experiment(k))
			if format == "table" {
				fmt.Printf("   [%s took %v]\n\n", k, time.Since(start).Round(time.Millisecond))
			}
		}
	} else {
		render(cli.Experiment(id))
	}
	cli.ReportStore()
	if tr != nil {
		experiments.WriteTelemetry(tr, traceOut, metricsOut)
	}
}
