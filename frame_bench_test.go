package libra_test

import (
	"fmt"
	"testing"

	libra "repro"
)

// BenchmarkFrame times one steady-state frame of the headline LIBRA
// configuration with telemetry disabled — the regression gate for the
// observability layer's zero-cost-when-off guarantee.
func BenchmarkFrame(b *testing.B) {
	run, err := libra.NewRun(libra.LIBRA(640, 384, 2), "SuS")
	if err != nil {
		b.Fatal(err)
	}
	run.RenderFrames(2) // warm caches and the adaptive controller
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.RenderFrame()
	}
}

// BenchmarkFrameRE times the steady-state frame with Rendering Elimination
// enabled, in both regimes: SuS (scrolling, zero skips — RE's signing
// overhead with no payoff) and AnB (static background, most tiles skipped).
// Both rows are gated in BENCH_ci.json, so RE's alloc count is pinned to the
// RE-off baseline in CI.
func BenchmarkFrameRE(b *testing.B) {
	for _, game := range []string{"SuS", "AnB"} {
		b.Run(game, func(b *testing.B) {
			cfg := libra.LIBRA(640, 384, 2)
			cfg.RenderElim = true
			run, err := libra.NewRun(cfg, game)
			if err != nil {
				b.Fatal(err)
			}
			run.RenderFrames(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.RenderFrame()
			}
		})
	}
}

// BenchmarkFrameWorkers times the same steady-state frame under the serial
// reference engine (workers=1) and the parallel rasterization farm — the
// speedup record for Config.SimWorkers. Every sub-benchmark computes
// byte-identical results; only wall-clock time may differ, and it only
// improves when the host grants the process multiple CPUs.
func BenchmarkFrameWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := libra.LIBRA(640, 384, 2)
			cfg.SimWorkers = workers
			run, err := libra.NewRun(cfg, "SuS")
			if err != nil {
				b.Fatal(err)
			}
			run.RenderFrames(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.RenderFrame()
			}
		})
	}
}

// BenchmarkFrameReplay times simbench's replay op through the public API:
// one 4-pass ReplayTrace of a SuS frame captured after 4 warm-up frames,
// under the four paper policies in turn. No functional raster runs, so the
// op is the trace decoder, the timing replay, the scheduler and the memory
// model.
func BenchmarkFrameReplay(b *testing.B) {
	cfg := libra.LIBRA(640, 384, 2)
	cfg.L2KB = 1024 // librasim's and simbench's default
	run, err := libra.NewRun(cfg, "SuS")
	if err != nil {
		b.Fatal(err)
	}
	run.RenderFrames(4)
	_, data, err := run.CaptureTrace()
	if err != nil {
		b.Fatal(err)
	}
	policies := []libra.Policy{libra.PolicyZOrder, libra.PolicyStaticSupertile, libra.PolicyTemperature, libra.PolicyLIBRA}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Policy = policies[i%len(policies)]
		if _, err := libra.ReplayTrace(cfg, data, 4); err != nil {
			b.Fatal(err)
		}
	}
}
