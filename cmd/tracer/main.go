// Command tracer records rendering traces and replays them under different
// GPU configurations — the trace-driven methodology that lets one expensive
// functional rendering pass feed many cheap timing studies.
//
// Usage:
//
//	tracer -record sus.trace -game SuS -frame 4
//	tracer -replay sus.trace -policy zorder -passes 4
//	tracer -replay sus.trace -policy libra  -passes 4 -rus 2
package main

import (
	"flag"
	"fmt"
	"os"

	libra "repro"
	"repro/internal/experiments"
)

func main() {
	cli := experiments.CLI{Name: "tracer", P: experiments.DefaultParams()}
	flag.IntVar(&cli.P.ScreenW, "w", cli.P.ScreenW, "screen width")
	flag.IntVar(&cli.P.ScreenH, "h", cli.P.ScreenH, "screen height")
	var (
		record = flag.String("record", "", "record a trace to this file")
		replay = flag.String("replay", "", "replay a trace from this file")
		game   = flag.String("game", "SuS", "benchmark to record")
		frame  = flag.Int("frame", 4, "animation frame to record (earlier frames warm the caches)")
		policy = flag.String("policy", "libra", "replay scheduler policy: "+experiments.PolicyHelp())
		rus    = flag.Int("rus", 2, "raster units for replay")
		passes = flag.Int("passes", 4, "replay passes")
	)
	cli.ParseCommandLine()

	switch {
	case *record != "":
		if *frame < 0 {
			cli.Refuse(fmt.Errorf("frame %d < 0", *frame))
		}
		doRecord(&cli, *record, *game, *frame)
	case *replay != "":
		cfg := cli.P.Apply(libra.DefaultConfig(cli.P.ScreenW, cli.P.ScreenH))
		cfg.RasterUnits = *rus
		cfg.CoresPerRU = 4
		if *rus == 1 {
			cfg.CoresPerRU = 8
		}
		cfg.Policy = libra.Policy(*policy)
		cli.Refuse(cfg.Validate())
		if *passes < 1 {
			cli.Refuse(fmt.Errorf("passes %d < 1", *passes))
		}
		doReplay(*replay, cfg, *passes)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(cli *experiments.CLI, path, game string, frame int) {
	run := cli.NewRun(cli.P.Apply(libra.DefaultConfig(cli.P.ScreenW, cli.P.ScreenH)), game)
	// Warm frames keep the captured frame representative of steady state.
	for i := 0; i < frame; i++ {
		run.RenderFrame()
	}
	res, data, err := run.CaptureTrace()
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("recorded %s frame %d: %d bytes, %d fragments, %d cycles\n",
		game, res.Frame, len(data), res.Fragments, res.TotalCycles)
}

func doReplay(path string, cfg libra.Config, passes int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	results, err := libra.ReplayTrace(cfg, data, passes)
	if err != nil {
		fail(err)
	}
	fmt.Printf("replay of %s under policy=%s rus=%d\n", path, cfg.Policy, cfg.RasterUnits)
	for _, r := range results {
		fmt.Printf("pass %d: %9d cycles  sched=%-12s texHit=%.3f texLat=%5.1f dram=%d\n",
			r.Pass, r.RasterCycles, r.Scheduler, r.TexHitRatio, r.AvgTexLatency, r.DRAMAccesses)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
