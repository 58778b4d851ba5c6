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
	var (
		record  = flag.String("record", "", "record a trace to this file")
		replay  = flag.String("replay", "", "replay a trace from this file")
		game    = flag.String("game", "SuS", "benchmark to record")
		frame   = flag.Int("frame", 4, "animation frame to record (earlier frames warm the caches)")
		policy  = flag.String("policy", "libra", "replay scheduler policy: "+experiments.PolicyHelp())
		rus     = flag.Int("rus", 2, "raster units for replay")
		passes  = flag.Int("passes", 4, "replay passes")
		screenW = flag.Int("w", experiments.DefaultParams().ScreenW, "screen width")
		screenH = flag.Int("h", experiments.DefaultParams().ScreenH, "screen height")
	)
	flag.Parse()

	switch {
	case *record != "":
		doRecord(*record, *game, *frame, *screenW, *screenH)
	case *replay != "":
		doReplay(*replay, *policy, *rus, *passes, *screenW, *screenH)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(path, game string, frame, w, h int) {
	cfg := libra.DefaultConfig(w, h)
	cfg.L2KB = experiments.DefaultParams().L2KB
	run, err := libra.NewRun(cfg, game)
	if err != nil {
		fail(err)
	}
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

func doReplay(path, policy string, rus, passes, w, h int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	cfg := libra.DefaultConfig(w, h)
	cfg.L2KB = experiments.DefaultParams().L2KB
	cfg.RasterUnits = rus
	cfg.CoresPerRU = 4
	if rus == 1 {
		cfg.CoresPerRU = 8
	}
	cfg.Policy = libra.Policy(policy)
	results, err := libra.ReplayTrace(cfg, data, passes)
	if err != nil {
		fail(err)
	}
	fmt.Printf("replay of %s under policy=%s rus=%d\n", path, policy, rus)
	for _, r := range results {
		fmt.Printf("pass %d: %9d cycles  sched=%-12s texHit=%.3f texLat=%5.1f dram=%d\n",
			r.Pass, r.RasterCycles, r.Scheduler, r.TexHitRatio, r.AvgTexLatency, r.DRAMAccesses)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
