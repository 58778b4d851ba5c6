package libra_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	libra "repro"
)

// equivalenceConfig is the matrix configuration: the full LIBRA proposal so
// the adaptive controller, temperature scheduler and supertile resizing are
// all in the loop — the parts whose decisions would drift first if parallel
// rasterization leaked any nondeterminism into the timing model.
func equivalenceConfig(workers int) libra.Config {
	cfg := libra.LIBRA(320, 192, 2)
	cfg.SimWorkers = workers
	return cfg
}

// renderMatrixFrames runs one benchmark under the matrix config and returns
// the per-frame results plus the last frame's pixels.
func renderMatrixFrames(t *testing.T, game string, workers, frames int) ([]libra.FrameResult, []uint32) {
	t.Helper()
	r, err := libra.NewRun(equivalenceConfig(workers), game)
	if err != nil {
		t.Fatal(err)
	}
	return r.RenderFrames(frames), r.FramePixels()
}

// frameLine formats a frame result the way cmd/librasim prints it, so the
// comparison below covers the user-visible stdout byte for byte, not just the
// struct fields.
func frameLine(f libra.FrameResult) string {
	return fmt.Sprintf("frame %2d: %9d cycles  %6.1f fps  order=%-11s st=%-2d texHit=%.3f texLat=%5.1f dram=%7d energy=%7.0fuJ",
		f.Frame, f.TotalCycles, f.FPS, f.Order, f.Supertile, f.TexHitRatio, f.AvgTexLatency, f.DRAMAccesses, f.Energy.Total)
}

// TestSerialParallelEquivalenceMatrix renders every registered benchmark
// under the serial reference engine and under 2- and 4-worker parallel
// rasterization, and requires every externally visible result — each frame's
// full FrameResult (cycles, hashes, cache and DRAM statistics, per-RU load,
// per-tile heatmaps), the formatted stdout lines, the run summary and the
// final frame pixels — to be identical. This is the contract stated on
// Config.SimWorkers: the worker count is a host-side execution detail that
// must never be observable in simulation results.
func TestSerialParallelEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite three times")
	}
	const frames = 3
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			ref, refPix := renderMatrixFrames(t, b.Abbrev, 0, frames)
			refSum := libra.Summarize(ref, 1).String()
			for _, workers := range []int{2, 4} {
				got, gotPix := renderMatrixFrames(t, b.Abbrev, workers, frames)
				for i := range ref {
					if !reflect.DeepEqual(ref[i], got[i]) {
						t.Errorf("workers=%d frame %d diverges from serial reference:\nserial:   %s\nparallel: %s",
							workers, i, frameLine(ref[i]), frameLine(got[i]))
					}
				}
				if sum := libra.Summarize(got, 1).String(); sum != refSum {
					t.Errorf("workers=%d summary diverges:\nserial:   %s\nparallel: %s", workers, refSum, sum)
				}
				if !reflect.DeepEqual(refPix, gotPix) {
					t.Errorf("workers=%d final frame pixels diverge from serial reference", workers)
				}
			}
		})
	}
}

// renderMatrixFramesRE is renderMatrixFrames with the Rendering Elimination
// axis added.
func renderMatrixFramesRE(t *testing.T, game string, workers, frames int, re bool) ([]libra.FrameResult, []uint32) {
	t.Helper()
	cfg := equivalenceConfig(workers)
	cfg.RenderElim = re
	r, err := libra.NewRun(cfg, game)
	if err != nil {
		t.Fatal(err)
	}
	return r.RenderFrames(frames), r.FramePixels()
}

// TestRenderElimEquivalenceMatrix extends the 32-profile matrix with the
// Rendering Elimination axis: {RE off, RE on} × {serial, 4 workers}. Within
// each RE setting the serial and parallel cells must be fully DeepEqual
// (frames, summaries, pixels) — SimWorkers stays unobservable with skips in
// play. Across the RE axis, rendered output must be identical on every
// profile: final pixels DeepEqual and every frame's FrameHash equal. RE may
// only change cycle/energy accounting where the run actually skipped tiles
// (was coherent); on profiles where nothing was skipped the frames must be
// DeepEqual outright.
func TestRenderElimEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite four times")
	}
	const frames = 3
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			off, offPix := renderMatrixFramesRE(t, b.Abbrev, 0, frames, false)
			on, onPix := renderMatrixFramesRE(t, b.Abbrev, 0, frames, true)

			// Serial vs 4 workers, inside each RE setting.
			for _, cell := range []struct {
				re   bool
				ref  []libra.FrameResult
				pix  []uint32
				name string
			}{
				{false, off, offPix, "RE off"},
				{true, on, onPix, "RE on"},
			} {
				par, parPix := renderMatrixFramesRE(t, b.Abbrev, 4, frames, cell.re)
				for i := range cell.ref {
					if !reflect.DeepEqual(cell.ref[i], par[i]) {
						t.Errorf("%s: workers=4 frame %d diverges from serial:\nserial:   %s\nparallel: %s",
							cell.name, i, frameLine(cell.ref[i]), frameLine(par[i]))
					}
				}
				if a, b := libra.Summarize(cell.ref, 1).String(), libra.Summarize(par, 1).String(); a != b {
					t.Errorf("%s: workers=4 summary diverges:\nserial:   %s\nparallel: %s", cell.name, a, b)
				}
				if !reflect.DeepEqual(cell.pix, parPix) {
					t.Errorf("%s: workers=4 final pixels diverge from serial", cell.name)
				}
			}

			// Across the RE axis: rendered output is inviolable.
			if !reflect.DeepEqual(offPix, onPix) {
				t.Errorf("RE on changes final frame pixels")
			}
			skipped := 0
			for i := range off {
				if off[i].FrameHash != on[i].FrameHash {
					t.Errorf("frame %d: RE on changes FrameHash %#x -> %#x",
						i, off[i].FrameHash, on[i].FrameHash)
				}
				skipped += on[i].TilesSkipped
			}
			if skipped == 0 {
				// No coherence found: RE must be a complete no-op, cycle and
				// energy accounting included.
				for i := range off {
					if !reflect.DeepEqual(off[i], on[i]) {
						t.Errorf("frame %d: zero tiles skipped but RE on still changes results:\noff: %s\non:  %s",
							i, frameLine(off[i]), frameLine(on[i]))
					}
				}
			}
		})
	}
}

// TestGoldenFrameHashesParallel is the parallel twin of
// TestGoldenFrameHashes: 4-worker rasterization must reproduce the committed
// golden hashes exactly, tying the parallel engine to the same long-lived
// reference the serial renderer answers to.
func TestGoldenFrameHashesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite")
	}
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenFrameHashes[b.Abbrev]
			if !ok {
				t.Fatalf("%s: no golden hash recorded", b.Abbrev)
			}
			cfg := libra.Baseline(320, 192, 8)
			cfg.SimWorkers = 4
			r, err := libra.NewRun(cfg, b.Abbrev)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.RenderFrames(2)[1].FrameHash; got != want {
				t.Errorf("%s: 4-worker frame hash %#x, golden %#x", b.Abbrev, got, want)
			}
		})
	}
}

// captureGoldenFrame renders frame 0 of a benchmark on the golden
// configuration, then captures frame 1 — the golden frame — as a trace.
func captureGoldenFrame(t *testing.T, game string, simWorkers int) (libra.FrameResult, []byte) {
	t.Helper()
	cfg := libra.Baseline(320, 192, 8)
	cfg.SimWorkers = simWorkers
	r, err := libra.NewRun(cfg, game)
	if err != nil {
		t.Fatal(err)
	}
	r.RenderFrame()
	res, data, err := r.CaptureTrace()
	if err != nil {
		t.Fatal(err)
	}
	return res, data
}

// TestGoldenFrameHashesReplay is the golden-hash twin of the trace-replay
// front door: capturing the golden frame as a trace (CaptureTrace) on the
// 4-worker render farm must render the committed golden hash, and the
// captured trace — the input every ReplayTrace re-timing consumes — must be
// byte-identical to the serial engine's capture, as must the capturing
// frame's result.
func TestGoldenFrameHashesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite twice")
	}
	for _, b := range libra.Benchmarks() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenFrameHashes[b.Abbrev]
			if !ok {
				t.Fatalf("%s: no golden hash recorded", b.Abbrev)
			}
			ref, refTrace := captureGoldenFrame(t, b.Abbrev, 0)
			got, gotTrace := captureGoldenFrame(t, b.Abbrev, 4)
			if got.FrameHash != want {
				t.Errorf("%s: 4-worker captured frame hash %#x, golden %#x", b.Abbrev, got.FrameHash, want)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: capturing frame diverges on the render farm:\nserial:   %s\nparallel: %s",
					b.Abbrev, frameLine(ref), frameLine(got))
			}
			if !bytes.Equal(refTrace, gotTrace) {
				t.Errorf("%s: trace captured on the render farm differs from the serial capture (%d vs %d bytes)",
					b.Abbrev, len(gotTrace), len(refTrace))
			}
		})
	}
}
