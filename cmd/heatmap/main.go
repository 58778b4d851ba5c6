// Command heatmap renders the per-tile DRAM-access heatmaps of Figs. 2 and 9:
// run a benchmark for a few frames and print (or save as PGM) the tile-level
// and supertile-level memory-intensity maps.
//
// Usage:
//
//	heatmap -game SuS                 # Fig. 2 view, ASCII
//	heatmap -game HCR -super 4        # Fig. 9 view with 4x4 supertiles
//	heatmap -game SuS -pgm sus.pgm    # save a grayscale image
package main

import (
	"flag"
	"fmt"
	"os"

	libra "repro"
	"repro/internal/experiments"
)

func main() {
	cli := experiments.CLI{Name: "heatmap", P: experiments.DefaultParams()}
	flag.IntVar(&cli.P.Frames, "frames", 4, "frames to render before sampling")
	flag.IntVar(&cli.P.ScreenW, "w", cli.P.ScreenW, "screen width")
	flag.IntVar(&cli.P.ScreenH, "h", cli.P.ScreenH, "screen height")
	var (
		game    = flag.String("game", "SuS", "benchmark abbreviation")
		superK  = flag.Int("super", 0, "also print the KxK-supertile aggregation (0 = off)")
		pgmPath = flag.String("pgm", "", "write the tile heatmap as a PGM image to this path")
	)
	cli.ParseCommandLine()

	run := cli.NewRun(cli.P.Apply(libra.DefaultConfig(cli.P.ScreenW, cli.P.ScreenH)), *game)
	results := run.RenderFrames(cli.P.Frames)
	last := results[len(results)-1]

	fmt.Printf("%s: per-tile DRAM accesses, frame %d (%d tiles)\n",
		*game, last.Frame, len(last.TileDRAM)*len(last.TileDRAM[0]))
	fmt.Print(libra.HeatmapASCII(last.TileDRAM))

	if *superK > 0 {
		fmt.Printf("\nsupertile %dx%d aggregation:\n", *superK, *superK)
		fmt.Print(libra.HeatmapASCII(libra.DownsampleHeatmap(last.TileDRAM, *superK)))
	}
	if *pgmPath != "" {
		if err := os.WriteFile(*pgmPath, []byte(libra.HeatmapPGM(last.TileDRAM)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *pgmPath)
	}
}
