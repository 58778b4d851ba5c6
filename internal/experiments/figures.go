package experiments

import (
	"fmt"
	"math"
	"strings"

	libra "repro"
)

// Fig01Breakdown reproduces Fig. 1: the distribution of execution time
// between the Geometry and Raster pipelines, per benchmark (paper: ~88%
// raster on average).
func (r *Runner) Fig01Breakdown() *Result {
	res := &Result{
		ID:      "fig01",
		Title:   "Execution time distribution: geometry vs raster",
		Columns: []string{"geom%", "raster%"},
	}
	res.Rows = r.perGame(allGames(), func(g string) Row {
		run := r.Run(r.Baseline(), g)
		var geom, total int64
		for _, f := range run.Frames[r.P.Warmup:] {
			geom += f.GeometryCycles
			total += f.TotalCycles
		}
		gf := ratio(float64(geom), float64(total)) * 100
		return Row{Label: g, Values: []float64{gf, 100 - gf}}
	})
	res.Headline = map[string]float64{"avg_raster_pct": mean(column(res.Rows, 1))}
	return res
}

// Fig02Heatmap reproduces Fig. 2: the per-tile DRAM-access heatmap of a
// Subway-Surfers-like frame, showing hot clusters (character, HUD) and cold
// background regions.
func (r *Runner) Fig02Heatmap() *Result {
	run := r.Run(r.Baseline(), "SuS")
	last := run.Frames[len(run.Frames)-1]
	grid := last.TileDRAM
	// Heterogeneity metrics: hottest tile vs median tile.
	var vals []float64
	for _, row := range grid {
		vals = append(vals, row...)
	}
	max, sum := 0.0, 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
		sum += v
	}
	meanV := sum / float64(len(vals))
	res := &Result{
		ID:    "fig02",
		Title: "Per-tile DRAM access heatmap (SuS)",
		Headline: map[string]float64{
			"hottest_tile":  max,
			"mean_tile":     meanV,
			"hot_over_mean": max / (meanV + 1e-9),
		},
		Art: libra.HeatmapASCII(grid),
	}
	return res
}

// Table02Benchmarks reproduces Table II: the benchmark suite with class and
// memory footprint.
func (r *Runner) Table02Benchmarks() *Result {
	res := &Result{
		ID:      "table02",
		Title:   "Evaluated benchmarks (class 2D=0/2.5D=0.5/3D=1, mem-intensive flag, footprint MB)",
		Columns: []string{"class", "memint", "footMB"},
	}
	var foot []float64
	for _, b := range libra.Benchmarks() {
		class := 0.0
		switch b.Class {
		case "2.5D":
			class = 0.5
		case "3D":
			class = 1
		}
		mi := 0.0
		if b.MemoryIntensive {
			mi = 1
		}
		res.Rows = append(res.Rows, Row{Label: b.Abbrev, Values: []float64{class, mi, b.FootprintMB}})
		foot = append(foot, b.FootprintMB)
	}
	res.Headline = map[string]float64{"avg_footprint_MB": mean(foot)}
	return res
}

// Fig04CoreScaling reproduces Fig. 4: the speedup of doubling a single
// Raster Unit from 4 to 8 cores; many games scale poorly (<1.5).
func (r *Runner) Fig04CoreScaling() *Result {
	res := &Result{
		ID:      "fig04",
		Title:   "Speedup of 8 vs 4 cores in one Raster Unit",
		Columns: []string{"speedup"},
	}
	res.Rows = r.perGame(allGames(), func(g string) Row {
		four := r.Run(r.BaselineCores(4), g)
		eight := r.Run(r.Baseline(), g)
		return Row{Label: g, Values: []float64{libra.Speedup(four.Summary, eight.Summary)}}
	})
	below := 0
	for _, s := range column(res.Rows, 0) {
		if s < 1.5 {
			below++
		}
	}
	res.Headline = map[string]float64{"games_below_1.5x": float64(below)}
	return res
}

// Fig06aMemoryFraction reproduces Fig. 6a: the fraction of execution time
// spent on memory, measured by differencing against an ideal-L1 run.
func (r *Runner) Fig06aMemoryFraction() *Result {
	res := &Result{
		ID:      "fig06a",
		Title:   "Fraction of execution time on memory accesses",
		Columns: []string{"mem%"},
	}
	res.Rows = r.perGame(allGames(), func(g string) Row {
		return Row{Label: g, Values: []float64{r.memFraction(g) * 100}}
	})
	res.Headline = map[string]float64{"avg_mem_pct": mean(column(res.Rows, 0))}
	return res
}

// memFraction returns the memory-time fraction of a game on the baseline.
func (r *Runner) memFraction(game string) float64 {
	real := r.Run(r.Baseline(), game)
	ideal := r.Baseline()
	ideal.IdealMemory = true
	id := r.Run(ideal, game)
	if real.Summary.TotalCycles == 0 {
		return 0
	}
	f := 1 - float64(id.Summary.TotalCycles)/float64(real.Summary.TotalCycles)
	if f < 0 {
		f = 0
	}
	return f
}

// Fig06bCorrelation reproduces Fig. 6b: PTR speedup over the baseline as a
// function of memory intensiveness — the more memory-bound, the smaller the
// speedup.
func (r *Runner) Fig06bCorrelation() *Result {
	res := &Result{
		ID:      "fig06b",
		Title:   "PTR(2RU) speedup vs memory fraction",
		Columns: []string{"mem%", "speedup"},
	}
	res.Rows = r.perGame(allGames(), func(g string) Row {
		base := r.Run(r.Baseline(), g)
		ptr := r.Run(r.PTR(2), g)
		m := r.memFraction(g) * 100
		s := libra.Speedup(base.Summary, ptr.Summary)
		return Row{Label: g, Values: []float64{m, s}}
	})
	ms, ss := column(res.Rows, 0), column(res.Rows, 1)
	// Pearson correlation between memory fraction and speedup (paper:
	// strongly negative).
	mx, my := mean(ms), mean(ss)
	var num, dx, dy float64
	for i := range ms {
		num += (ms[i] - mx) * (ss[i] - my)
		dx += (ms[i] - mx) * (ms[i] - mx)
		dy += (ss[i] - my) * (ss[i] - my)
	}
	corr := 0.0
	if dx > 0 && dy > 0 {
		corr = num / (math.Sqrt(dx) * math.Sqrt(dy))
	}
	res.Headline = map[string]float64{"pearson_corr": corr}
	return res
}

// Fig07Intervals reproduces Fig. 7: DRAM requests per 5000-cycle interval
// during a Candy-Crush-like frame, showing bursty demand.
func (r *Runner) Fig07Intervals() *Result {
	cfg := r.Baseline()
	cfg.IntervalWidth = 5000
	run := r.Run(cfg, "CCS")
	f := run.Frames[len(run.Frames)-1]
	counts := f.Intervals
	cv, peak, meanC := burstiness(counts)
	res := &Result{
		ID:    "fig07",
		Title: "DRAM requests per 5000-cycle interval (CCS frame)",
		Headline: map[string]float64{
			"intervals":     float64(len(counts)),
			"peak_requests": peak,
			"mean_requests": meanC,
			"cv":            cv,
		},
		Art: sparkline(counts, 64),
	}
	return res
}

// Fig08Coherence reproduces Fig. 8: the CDF of per-tile DRAM-access
// differences between consecutive frames (paper: >80% of tiles differ by
// <20%).
func (r *Runner) Fig08Coherence() *Result {
	games := allGames()
	perGameDiffs := make([][]float64, len(games))
	r.pool.ForEach(len(games), func(gi int) {
		run := r.Run(r.Baseline(), games[gi])
		var diffs []float64
		for fi := r.P.Warmup; fi+1 < len(run.Frames); fi++ {
			a := run.Frames[fi].TileDRAM
			b := run.Frames[fi+1].TileDRAM
			for y := range a {
				for x := range a[y] {
					da, db := a[y][x], b[y][x]
					hi := da
					if db > hi {
						hi = db
					}
					if hi == 0 {
						continue
					}
					d := da - db
					if d < 0 {
						d = -d
					}
					diffs = append(diffs, d/hi*100)
				}
			}
		}
		perGameDiffs[gi] = diffs
	})
	var diffs []float64
	for _, d := range perGameDiffs {
		diffs = append(diffs, d...)
	}
	res := &Result{
		ID:      "fig08",
		Title:   "CDF of per-tile DRAM difference between consecutive frames",
		Columns: []string{"cum%tiles"},
	}
	below20 := 0.0
	// Integer thresholds so the 20%-bucket pick is an exact integer
	// comparison, not a float equality (detlint).
	for _, th := range []int{5, 10, 20, 30, 50, 100} {
		cnt := 0
		for _, d := range diffs {
			if d <= float64(th) {
				cnt++
			}
		}
		frac := float64(cnt) / float64(len(diffs)) * 100
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("<=%d%%", th), Values: []float64{frac}})
		if th == 20 {
			below20 = frac
		}
	}
	res.Headline = map[string]float64{"tiles_below_20pct_diff": below20}
	return res
}

// Fig09Supertiles reproduces Fig. 9: a Hill-Climb-Racing-like frame's
// heatmap at tile and at supertile granularity — hot regions cluster.
func (r *Runner) Fig09Supertiles() *Result {
	run := r.Run(r.Baseline(), "HCR")
	last := run.Frames[len(run.Frames)-1]
	tileArt := libra.HeatmapASCII(last.TileDRAM)
	superArt := libra.HeatmapASCII(libra.DownsampleHeatmap(last.TileDRAM, 4))
	// Spatial clustering metric: Moran-like neighbour similarity — the
	// average relative difference between horizontally adjacent tiles
	// should be far below that of random tile pairs.
	adj, rnd := neighbourContrast(last.TileDRAM)
	res := &Result{
		ID:    "fig09",
		Title: "Tile-level vs supertile-level heatmap (HCR)",
		Headline: map[string]float64{
			"adjacent_tile_contrast": adj,
			"random_tile_contrast":   rnd,
		},
		Art: "tile granularity:\n" + tileArt + "supertile 4x4 granularity:\n" + superArt,
	}
	return res
}

func neighbourContrast(grid [][]float64) (adjacent, random float64) {
	var adj, rnd []float64
	for y := range grid {
		for x := 0; x+1 < len(grid[y]); x++ {
			a, b := grid[y][x], grid[y][x+1]
			if a+b > 0 {
				adj = append(adj, math.Abs(a-b)/(a+b))
			}
			// Random partner: mirrored coordinates.
			ry := len(grid) - 1 - y
			rx := len(grid[y]) - 1 - x
			c := grid[ry][rx]
			if a+c > 0 {
				rnd = append(rnd, math.Abs(a-c)/(a+c))
			}
		}
	}
	return mean(adj), mean(rnd)
}

// speedupSplit runs baseline/PTR/LIBRA for each game and returns rows of
// [ptrSpeedup%, schedExtra%, totalSpeedup%].
func (r *Runner) speedupSplit(games []string, rus int) ([]Row, []float64, []float64, []float64) {
	baseCfg := r.BaselineCores(4 * rus)
	rows := r.perGame(games, func(g string) Row {
		base := r.Run(baseCfg, g)
		ptr := r.Run(r.PTR(rus), g)
		lib := r.Run(r.LIBRA(rus), g)
		sp := (libra.Speedup(base.Summary, ptr.Summary) - 1) * 100
		st := (libra.Speedup(base.Summary, lib.Summary) - 1) * 100
		return Row{Label: g, Values: []float64{sp, st - sp, st}}
	})
	return rows, column(rows, 0), column(rows, 1), column(rows, 2)
}

// Fig11Speedup reproduces Fig. 11: LIBRA's speedup over the baseline for the
// memory-intensive games, split into the PTR contribution and the adaptive
// scheduler's extra (paper: +13.2% and +7.7%, total +20.9%).
func (r *Runner) Fig11Speedup() *Result {
	rows, ptrs, extras, totals := r.speedupSplit(memGames(), 2)
	fpsRows := r.perGame(memGames(), func(g string) Row {
		base := r.Run(r.Baseline(), g)
		lib := r.Run(r.LIBRA(2), g)
		return Row{Label: g, Values: []float64{(lib.Summary.AvgFPS/base.Summary.AvgFPS - 1) * 100}}
	})
	fps := column(fpsRows, 0)
	return &Result{
		ID:      "fig11",
		Title:   "LIBRA speedup vs baseline, memory-intensive games",
		Columns: []string{"ptr%", "sched%", "total%"},
		Rows:    rows,
		Headline: map[string]float64{
			"avg_ptr_pct":   mean(ptrs),
			"avg_sched_pct": mean(extras),
			"avg_total_pct": mean(totals),
			"avg_fps_pct":   mean(fps),
		},
	}
}

// Fig12TexLatency reproduces Fig. 12: the decrease in texture access latency
// of PTR alone and LIBRA vs the baseline (paper: avg 13.5% for LIBRA; PTR
// alone sometimes increases latency).
func (r *Runner) Fig12TexLatency() *Result {
	res := &Result{
		ID:      "fig12",
		Title:   "Texture latency decrease vs baseline (%)",
		Columns: []string{"ptr", "libra"},
	}
	res.Rows = r.perGame(memGames(), func(g string) Row {
		base := r.Run(r.Baseline(), g)
		ptr := r.Run(r.PTR(2), g)
		lib := r.Run(r.LIBRA(2), g)
		dp := (1 - ptr.Summary.AvgTexLatency/base.Summary.AvgTexLatency) * 100
		dl := (1 - lib.Summary.AvgTexLatency/base.Summary.AvgTexLatency) * 100
		return Row{Label: g, Values: []float64{dp, dl}}
	})
	res.Headline = map[string]float64{
		"avg_ptr_decrease_pct":   mean(column(res.Rows, 0)),
		"avg_libra_decrease_pct": mean(column(res.Rows, 1)),
	}
	return res
}

// Fig13HitRatio reproduces Fig. 13: the texture-cache hit-ratio increase of
// PTR and LIBRA vs the baseline (paper: avg +10.6% for LIBRA), plus the
// block-replication reduction vs PTR (§V-A.3: −32.5%).
func (r *Runner) Fig13HitRatio() *Result {
	res := &Result{
		ID:      "fig13",
		Title:   "Texture cache hit-ratio increase vs baseline (%)",
		Columns: []string{"ptr", "libra"},
	}
	games := memGames()
	replByGame := make([][]float64, len(games)) // empty when PTR replication is zero
	rows := make([]Row, len(games))
	r.pool.ForEach(len(games), func(i int) {
		g := games[i]
		base := r.Run(r.Baseline(), g)
		ptr := r.Run(r.PTR(2), g)
		lib := r.Run(r.LIBRA(2), g)
		dp := (ptr.Summary.AvgTexHit/base.Summary.AvgTexHit - 1) * 100
		dl := (lib.Summary.AvgTexHit/base.Summary.AvgTexHit - 1) * 100
		rows[i] = Row{Label: g, Values: []float64{dp, dl}}
		// Replication: average over measured frames.
		var rp, rl float64
		for _, f := range ptr.Frames[r.P.Warmup:] {
			rp += f.Replication
		}
		for _, f := range lib.Frames[r.P.Warmup:] {
			rl += f.Replication
		}
		if rp > 0 {
			replByGame[i] = []float64{(1 - rl/rp) * 100}
		}
	})
	res.Rows = rows
	var repl []float64
	for _, v := range replByGame {
		repl = append(repl, v...)
	}
	res.Headline = map[string]float64{
		"avg_ptr_increase_pct":      mean(column(rows, 0)),
		"avg_libra_increase_pct":    mean(column(rows, 1)),
		"avg_replication_reduction": mean(repl),
	}
	return res
}

// Fig14DramAccesses reproduces Fig. 14: LIBRA's DRAM accesses normalized to
// PTR alone (paper: ≈1.0 on average — the scheduler balances traffic in
// time rather than removing it).
func (r *Runner) Fig14DramAccesses() *Result {
	res := &Result{
		ID:      "fig14",
		Title:   "Main memory accesses, LIBRA normalized to PTR",
		Columns: []string{"normalized"},
	}
	res.Rows = r.perGame(memGames(), func(g string) Row {
		ptr := r.Run(r.PTR(2), g)
		lib := r.Run(r.LIBRA(2), g)
		norm := ratio(float64(lib.Summary.DRAMAccesses), float64(ptr.Summary.DRAMAccesses))
		return Row{Label: g, Values: []float64{norm}}
	})
	res.Headline = map[string]float64{"avg_normalized": mean(column(res.Rows, 0))}
	return res
}

// Fig15Energy reproduces Fig. 15: total GPU energy decrease vs the baseline,
// split into PTR and scheduler parts (paper: 5.5% + 3.7% = 9.2%).
func (r *Runner) Fig15Energy() *Result {
	res := &Result{
		ID:      "fig15",
		Title:   "GPU energy decrease vs baseline (%)",
		Columns: []string{"ptr", "sched", "total"},
	}
	res.Rows = r.perGame(memGames(), func(g string) Row {
		base := r.Run(r.Baseline(), g)
		ptr := r.Run(r.PTR(2), g)
		lib := r.Run(r.LIBRA(2), g)
		dp := (1 - ptr.Summary.EnergyUJ/base.Summary.EnergyUJ) * 100
		dt := (1 - lib.Summary.EnergyUJ/base.Summary.EnergyUJ) * 100
		return Row{Label: g, Values: []float64{dp, dt - dp, dt}}
	})
	res.Headline = map[string]float64{
		"avg_ptr_pct":   mean(column(res.Rows, 0)),
		"avg_sched_pct": mean(column(res.Rows, 1)),
		"avg_total_pct": mean(column(res.Rows, 2)),
	}
	return res
}

// Fig16StaticSupertiles reproduces Fig. 16: static supertile sizes vs
// LIBRA's dynamic resizing, as speedup over PTR alone.
func (r *Runner) Fig16StaticSupertiles() *Result {
	res := &Result{
		ID:      "fig16",
		Title:   "Speedup over PTR: static supertiles vs LIBRA",
		Columns: []string{"2x2", "4x4", "8x8", "16x16", "libra"},
	}
	res.Rows = r.perGame(memGames(), func(g string) Row {
		ptr := r.Run(r.PTR(2), g)
		var vals []float64
		for _, k := range []int{2, 4, 8, 16} {
			cfg := r.PTR(2)
			cfg.Policy = libra.PolicyStaticSupertile
			cfg.SupertileSize = k
			st := r.Run(cfg, g)
			vals = append(vals, (libra.Speedup(ptr.Summary, st.Summary)-1)*100)
		}
		lib := r.Run(r.LIBRA(2), g)
		vals = append(vals, (libra.Speedup(ptr.Summary, lib.Summary)-1)*100)
		return Row{Label: g, Values: vals}
	})
	res.Headline = map[string]float64{
		"avg_2x2_pct":   mean(column(res.Rows, 0)),
		"avg_4x4_pct":   mean(column(res.Rows, 1)),
		"avg_8x8_pct":   mean(column(res.Rows, 2)),
		"avg_16x16_pct": mean(column(res.Rows, 3)),
		"avg_libra_pct": mean(column(res.Rows, 4)),
	}
	return res
}

// Fig17ComputeIntensive reproduces Fig. 17: the speedup split on the
// compute-intensive games (paper: +9.9% PTR, +1.7% scheduler).
func (r *Runner) Fig17ComputeIntensive() *Result {
	rows, ptrs, extras, totals := r.speedupSplit(compGames(), 2)
	return &Result{
		ID:      "fig17",
		Title:   "Speedup vs baseline, compute-intensive games",
		Columns: []string{"ptr%", "sched%", "total%"},
		Rows:    rows,
		Headline: map[string]float64{
			"avg_ptr_pct":   mean(ptrs),
			"avg_sched_pct": mean(extras),
			"avg_total_pct": mean(totals),
		},
	}
}

// Fig18RasterUnits reproduces Fig. 18: LIBRA's scalability with 2, 3 and 4
// Raster Units against equal-core single-RU baselines (paper: +20.9%,
// +31.3%, +28.8%).
func (r *Runner) Fig18RasterUnits() *Result {
	res := &Result{
		ID:      "fig18",
		Title:   "LIBRA speedup vs equal-core baseline, by Raster Units",
		Columns: []string{"2RU%", "3RU%", "4RU%"},
	}
	res.Rows = r.perGame(memGames(), func(g string) Row {
		var vals []float64
		for _, n := range []int{2, 3, 4} {
			base := r.Run(r.BaselineCores(4*n), g)
			lib := r.Run(r.LIBRA(n), g)
			vals = append(vals, (libra.Speedup(base.Summary, lib.Summary)-1)*100)
		}
		return Row{Label: g, Values: vals}
	})
	res.Headline = map[string]float64{
		"avg_2ru_pct": mean(column(res.Rows, 0)),
		"avg_3ru_pct": mean(column(res.Rows, 1)),
		"avg_4ru_pct": mean(column(res.Rows, 2)),
	}
	return res
}

// Fig19aSupertileThreshold reproduces Fig. 19a: sensitivity of LIBRA's
// speedup to the supertile-resize threshold.
func (r *Runner) Fig19aSupertileThreshold() *Result {
	res := &Result{
		ID:      "fig19a",
		Title:   "Avg speedup vs baseline by supertile-resize threshold",
		Columns: []string{"avg_speedup%"},
	}
	for _, th := range []float64{0.0001, 0.0025, 0.01, 0.05, 0.15, 0.30} {
		rows := r.perGame(memGames(), func(g string) Row {
			base := r.Run(r.Baseline(), g)
			cfg := r.LIBRA(2)
			cfg.SupertileResizeThreshold = th
			lib := r.Run(cfg, g)
			return Row{Label: g, Values: []float64{(libra.Speedup(base.Summary, lib.Summary) - 1) * 100}}
		})
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("%.4f", th), Values: []float64{mean(column(rows, 0))}})
	}
	return res
}

// Fig19bOrderThreshold reproduces Fig. 19b: sensitivity to the tile-order
// switch threshold.
func (r *Runner) Fig19bOrderThreshold() *Result {
	res := &Result{
		ID:      "fig19b",
		Title:   "Avg speedup vs baseline by order-switch threshold",
		Columns: []string{"avg_speedup%"},
	}
	for _, th := range []float64{0.01, 0.02, 0.03, 0.04, 0.06, 0.10} {
		rows := r.perGame(memGames(), func(g string) Row {
			base := r.Run(r.Baseline(), g)
			cfg := r.LIBRA(2)
			cfg.OrderSwitchThreshold = th
			lib := r.Run(cfg, g)
			return Row{Label: g, Values: []float64{(libra.Speedup(base.Summary, lib.Summary) - 1) * 100}}
		})
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("%.2f", th), Values: []float64{mean(column(rows, 0))}})
	}
	return res
}

// RankingOverhead reproduces the §III-E analysis: the temperature-ranking
// latency vs the geometry-pipeline time it must hide under.
func (r *Runner) RankingOverhead() *Result {
	res := &Result{
		ID:      "ranking",
		Title:   "Ranking-hardware overhead vs geometry time",
		Columns: []string{"rank_cycles", "geom_cycles", "hidden"},
	}
	games := []string{"CCS", "SuS", "HCR", "GDL"}
	groups := make([][]Row, len(games))
	hiddenBy := make([]int, len(games))
	totalBy := make([]int, len(games))
	r.pool.ForEach(len(games), func(gi int) {
		g := games[gi]
		run := r.Run(r.Baseline(), g)
		grid := run.Frames[0].TileDRAM
		supers := (len(grid[0])/2 + len(grid[0])%2) * (len(grid)/2 + len(grid)%2)
		rank := libra.RankingCycles(supers)
		for _, f := range run.Frames[r.P.Warmup:] {
			totalBy[gi]++
			h := 0.0
			if rank <= f.GeometryCycles {
				h = 1
				hiddenBy[gi]++
			}
			groups[gi] = append(groups[gi], Row{
				Label:  fmt.Sprintf("%s.f%d", g, f.Frame),
				Values: []float64{float64(rank), float64(f.GeometryCycles), h},
			})
		}
	})
	hidden, total := 0, 0
	for gi := range games {
		res.Rows = append(res.Rows, groups[gi]...)
		hidden += hiddenBy[gi]
		total += totalBy[gi]
	}
	res.Headline = map[string]float64{
		"frames_hidden_pct": ratio(float64(hidden), float64(total)) * 100,
		"table_bytes_510":   float64(libra.RankTableBytes(510)),
	}
	return res
}

// sparkline renders counts as a fixed-width ASCII intensity strip.
func sparkline(counts []uint32, width int) string {
	if len(counts) == 0 {
		return ""
	}
	const ramp = " .:-=+*#%@"
	if width > len(counts) {
		width = len(counts)
	}
	bins := make([]float64, width)
	for i, c := range counts {
		bins[i*width/len(counts)] += float64(c)
	}
	max := 0.0
	for _, b := range bins {
		if b > max {
			max = b
		}
	}
	var sb strings.Builder
	sb.WriteString("dram/interval: [")
	for _, b := range bins {
		idx := 0
		if max > 0 {
			idx = int(b / max * float64(len(ramp)-1))
		}
		sb.WriteByte(ramp[idx])
	}
	sb.WriteString("]\n")
	return sb.String()
}
