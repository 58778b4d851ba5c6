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
	"slices"
	"strconv"
	"strings"

	libra "repro"
	"repro/internal/experiments"
)

// axisDefaults holds each sweep axis with its default points.
var axisDefaults = map[string]string{
	"cores": "2,4,8,16",
	"rus":   "1,2,3,4",
	"l2kb":  "256,512,1024,2048",
}

func main() {
	// Ctrl-C / SIGTERM cancels the sweep gracefully: every in-flight point
	// stops at its next frame boundary, completed points are already in the
	// store (if one is attached), and a rerun resumes from them.
	cli := experiments.NewCLI(context.Background(), "sweep", experiments.DefaultParams())
	cli.RegisterFlags(flag.CommandLine)
	flag.IntVar(&cli.P.Frames, "frames", 8, "frames per point")
	flag.IntVar(&cli.P.ScreenW, "w", cli.P.ScreenW, "screen width")
	flag.IntVar(&cli.P.ScreenH, "h", cli.P.ScreenH, "screen height")
	flag.BoolVar(&cli.Quiet, "quiet", false, "suppress the stderr progress/ETA line")
	var (
		game   = flag.String("game", "CCS", "benchmark abbreviation")
		axis   = flag.String("axis", "cores", "sweep axis: cores | rus | l2kb")
		values = flag.String("values", "", "comma-separated sweep values (defaults per axis)")
		policy = flag.String("policy", "libra", "scheduler policy: "+experiments.PolicyHelp())
	)
	cli.ParseCommandLine()

	points, err := parsePoints(*axis, *values)
	cli.Refuse(err)
	if !slices.ContainsFunc(libra.Benchmarks(), func(b libra.Benchmark) bool { return b.Abbrev == *game }) {
		cli.Refuse(fmt.Errorf("unknown benchmark %q", *game))
	}

	// The shared runner brings the in-memory singleflight cache and, with
	// -result-dir, the persistent layer an interrupted sweep resumes from.
	base := cli.P.Apply(libra.DefaultConfig(cli.P.ScreenW, cli.P.ScreenH))
	base.Policy = libra.Policy(*policy)
	base.RasterUnits = 2
	base.CoresPerRU = 4
	jobs := make([]experiments.Job, len(points))
	for i, v := range points {
		cfg := point(base, *axis, v)
		if err := cfg.Validate(); err != nil {
			cli.Refuse(fmt.Errorf("%s=%d: %w", *axis, v, err))
		}
		jobs[i] = experiments.Job{Cfg: cfg, Game: *game}
	}
	summaries := cli.RunAll(jobs)
	cli.ReportStore()

	fmt.Printf("%s sweep on %s (%s policy, %dx%d)\n", *axis, *game, *policy, cli.P.ScreenW, cli.P.ScreenH)
	fmt.Printf("%8s %12s %8s %8s %8s %10s\n", *axis, "cycles", "fps", "texHit", "texLat", "energy uJ")
	for i, v := range points {
		s := summaries[i]
		fmt.Printf("%8d %12d %8.1f %8.3f %8.1f %10.0f   (%+.1f%%)\n",
			v, s.TotalCycles, s.AvgFPS, s.AvgTexHit, s.AvgTexLatency, s.EnergyUJ,
			experiments.GainPct(summaries[0].TotalCycles, s.TotalCycles))
	}
}

// parsePoints returns the sweep points of axis: values, or the axis's
// defaults when values is empty. An unknown axis is an error either way.
func parsePoints(axis, values string) ([]int, error) {
	spec, ok := axisDefaults[axis]
	if !ok {
		return nil, fmt.Errorf("unknown axis %q (cores | rus | l2kb)", axis)
	}
	if values != "" {
		spec = values
	}
	var points []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-values: %q is not an integer", part)
		}
		points = append(points, v)
	}
	return points, nil
}

// point returns the configuration of one sweep point: base with the axis
// set to v. The cores axis sweeps a single-RU Z-order GPU; one Raster Unit
// on the rus axis falls back to Z-order too, since there is nothing to
// balance.
func point(base libra.Config, axis string, v int) libra.Config {
	cfg := base
	switch axis {
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
	return cfg
}
