package experiments

import (
	"math"

	libra "repro"
)

// ablationGames is a representative memory-intensive subset (cheap enough to
// sweep many configurations).
var ablationGames = []string{"AAt", "CCS", "Gra", "SuS", "HoW", "HCR"}

// AblationOrders compares tile-ordering policies beyond the paper's: the
// Hilbert curve (DTexL), per-frame reversal (Boustrophedonic Frames), a
// random-order control, the alternating hot/cold variant, and full LIBRA —
// all as speedup over interleaved Z-order PTR with two Raster Units.
func (r *Runner) AblationOrders() *Result {
	res := &Result{
		ID:      "ablation-orders",
		Title:   "Tile-order ablation: speedup over PTR Z-order (%)",
		Columns: []string{"hilbert", "reverse", "random", "alt-temp", "libra"},
	}
	policies := []libra.Policy{
		libra.PolicyHilbert, libra.PolicyReverse, libra.PolicyRandom,
		libra.PolicyAltTemperature, libra.PolicyLIBRA,
	}
	res.Rows = r.perGame(ablationGames, func(g string) Row {
		base := r.Run(r.PTR(2), g)
		var vals []float64
		for _, pol := range policies {
			cfg := r.PTR(2)
			cfg.Policy = pol
			vals = append(vals, (libra.Speedup(base.Summary, r.Run(cfg, g).Summary)-1)*100)
		}
		return Row{Label: g, Values: vals}
	})
	res.Headline = map[string]float64{
		"avg_hilbert_pct": mean(column(res.Rows, 0)),
		"avg_reverse_pct": mean(column(res.Rows, 1)),
		"avg_random_pct":  mean(column(res.Rows, 2)),
		"avg_alttemp_pct": mean(column(res.Rows, 3)),
		"avg_libra_pct":   mean(column(res.Rows, 4)),
	}
	return res
}

// Smoothing quantifies the paper's central premise: LIBRA's scheduler keeps
// DRAM demand more uniform over the frame. For each game it compares the
// coefficient of variation of per-interval DRAM requests (the burstiness of
// Fig. 7) between PTR and LIBRA, along with the peak interval.
func (r *Runner) Smoothing() *Result {
	res := &Result{
		ID:      "smoothing",
		Title:   "DRAM demand burstiness (CV of requests per 5000-cycle interval)",
		Columns: []string{"ptr_cv", "libra_cv", "ptr_peak", "libra_peak"},
	}
	res.Rows = r.perGame(ablationGames, func(g string) Row {
		ptrCfg := r.PTR(2)
		ptrCfg.IntervalWidth = 5000
		libCfg := r.LIBRA(2)
		libCfg.IntervalWidth = 5000
		p := r.Run(ptrCfg, g)
		l := r.Run(libCfg, g)
		pcv, ppeak, _ := burstiness(p.Frames[len(p.Frames)-1].Intervals)
		lcv, lpeak, _ := burstiness(l.Frames[len(l.Frames)-1].Intervals)
		return Row{Label: g, Values: []float64{pcv, lcv, ppeak, lpeak}}
	})
	res.Headline = map[string]float64{
		"avg_ptr_cv":   mean(column(res.Rows, 0)),
		"avg_libra_cv": mean(column(res.Rows, 1)),
	}
	return res
}

// burstiness summarizes per-interval request counts (Fig. 7): the
// coefficient of variation (stddev/mean, the burstiness LIBRA's scheduler
// is designed to reduce), the peak and the mean interval count. Empty or
// all-zero counts have zero CV.
func burstiness(counts []uint32) (cv, peak, avg float64) {
	if len(counts) == 0 {
		return 0, 0, 0
	}
	var total float64
	for _, c := range counts {
		v := float64(c)
		total += v
		if v > peak {
			peak = v
		}
	}
	avg = total / float64(len(counts))
	if avg == 0 {
		return 0, peak, 0
	}
	var ss float64
	for _, c := range counts {
		d := float64(c) - avg
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(counts))) / avg, peak, avg
}

// AblationPFR compares LIBRA's intra-frame parallelism against Parallel
// Frame Rendering (related work [9]): two consecutive frames rendered
// concurrently, one Raster Unit per frame, versus the same two frames
// rendered sequentially by LIBRA's two cooperating Raster Units.
func (r *Runner) AblationPFR() *Result {
	res := &Result{
		ID:      "ablation-pfr",
		Title:   "LIBRA (sequential frames, 2 cooperating RUs) vs PFR (1 RU per frame)",
		Columns: []string{"libra_cyc", "pfr_cyc", "libra_vs_pfr%"},
	}
	res.Rows = r.perGame(ablationGames, func(g string) Row {
		run, err := libra.NewRun(r.LIBRA(2), g)
		if err != nil {
			panic(err)
		}
		// Warm up, then capture two consecutive coherent frames while
		// measuring LIBRA's live sequential raster time for them.
		for i := 0; i < 4; i++ {
			run.RenderFrame()
		}
		resA, trA, err := run.CaptureTrace()
		if err != nil {
			panic(err)
		}
		resB, trB, err := run.CaptureTrace()
		if err != nil {
			panic(err)
		}
		seq := resA.RasterCycles + resB.RasterCycles

		pfr, err := libra.ReplayPFR(r.PTR(2), [][]byte{trA, trB})
		if err != nil {
			panic(err)
		}
		var gain float64
		if seq != 0 {
			gain = (float64(pfr.TotalCycles)/float64(seq) - 1) * 100
		}
		return Row{Label: g, Values: []float64{
			float64(seq), float64(pfr.TotalCycles), gain,
		}}
	})
	res.Headline = map[string]float64{"avg_libra_advantage_pct": mean(column(res.Rows, 2))}
	return res
}

// reGames spans the coherence spectrum: the four static-background puzzle
// profiles (high exact-repeat tile coherence — RE's target structure) plus
// two scrolling memory-intensive games whose full-screen background motion
// defeats exact signature matching (RE must be harmless there).
var reGames = []string{"AnB", "BeB", "CuT", "LiK", "CCS", "SuS"}

// AblationRE isolates where Rendering Elimination's benefit comes from and
// how it composes with the paper's scheduler: over a PTR(2) Z-order base it
// measures LIBRA alone, RE alone, and LIBRA+RE (each as speedup %), plus RE's
// DRAM-traffic reduction and its mean per-frame tile hit ratio. The coherent
// profiles show the win; the scrolling ones pin the no-coherence cost at
// zero.
func (r *Runner) AblationRE() *Result {
	res := &Result{
		ID:      "ablation-re",
		Title:   "Rendering Elimination ablation: speedup over PTR Z-order (%), DRAM reduction, hit ratio",
		Columns: []string{"libra", "re", "libra+re", "re_dram_red", "re_hit"},
	}
	res.Rows = r.perGame(reGames, func(g string) Row {
		base := r.Run(r.PTR(2), g)

		lib := r.Run(r.LIBRA(2), g)

		reCfg := r.PTR(2)
		reCfg.RenderElim = true
		re := r.Run(reCfg, g)

		bothCfg := r.LIBRA(2)
		bothCfg.RenderElim = true
		both := r.Run(bothCfg, g)

		var dramRed float64
		if base.Summary.DRAMAccesses > 0 {
			dramRed = (1 - float64(re.Summary.DRAMAccesses)/float64(base.Summary.DRAMAccesses)) * 100
		}
		var hit float64
		if frames := re.Frames[min(r.P.Warmup, len(re.Frames)):]; len(frames) > 0 {
			for _, f := range frames {
				hit += f.REHitRatio
			}
			hit /= float64(len(frames))
		}
		return Row{Label: g, Values: []float64{
			(libra.Speedup(base.Summary, lib.Summary) - 1) * 100,
			(libra.Speedup(base.Summary, re.Summary) - 1) * 100,
			(libra.Speedup(base.Summary, both.Summary) - 1) * 100,
			dramRed,
			hit,
		}}
	})
	res.Headline = map[string]float64{
		"avg_libra_pct":    mean(column(res.Rows, 0)),
		"avg_re_pct":       mean(column(res.Rows, 1)),
		"avg_libra_re_pct": mean(column(res.Rows, 2)),
		"avg_re_dram_red":  mean(column(res.Rows, 3)),
		"avg_re_hit":       mean(column(res.Rows, 4)),
	}
	return res
}

// AblationExtensions measures the extension features (not part of the
// paper's proposal) on top of LIBRA: texture prefetching, DRAM refresh
// modelling, and posted writes — each as speedup over plain LIBRA.
func (r *Runner) AblationExtensions() *Result {
	res := &Result{
		ID:      "ablation-ext",
		Title:   "Extension ablation: speedup over plain LIBRA (%)",
		Columns: []string{"prefetch", "refresh", "postedwr"},
	}
	variants := []func(*libra.Config){
		func(c *libra.Config) { c.PrefetchTexture = true },
		func(c *libra.Config) { c.DRAMRefresh = true },
		func(c *libra.Config) { c.PostedWrites = true },
	}
	res.Rows = r.perGame(ablationGames, func(g string) Row {
		base := r.Run(r.LIBRA(2), g)
		var vals []float64
		for _, apply := range variants {
			cfg := r.LIBRA(2)
			apply(&cfg)
			vals = append(vals, (libra.Speedup(base.Summary, r.Run(cfg, g).Summary)-1)*100)
		}
		return Row{Label: g, Values: vals}
	})
	res.Headline = map[string]float64{
		"avg_prefetch_pct": mean(column(res.Rows, 0)),
		"avg_refresh_pct":  mean(column(res.Rows, 1)),
		"avg_postedwr_pct": mean(column(res.Rows, 2)),
	}
	return res
}
