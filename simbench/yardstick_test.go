package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// Every run of the yardstick does the same work from empty tables.
func TestYardstickRepeatsItsWork(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var y yardstick
	if ms := y.millis(); ms <= 0 {
		t.Fatalf("yardstick took %v ms", ms)
	}
	first := y.hits
	y.millis()
	if y.hits != 2*first || first == 0 || first == yardAccesses {
		t.Fatalf("hits after one run %d, after two %d; want the same nonzero count, not every access, each run", first, y.hits)
	}
}

// Host times are multiplied by their scale; simulated counts, memory and
// allocation are not.
func TestHostTimesScaleByYardstick(t *testing.T) {
	samples := func(scale float64) []opSample {
		return []opSample{
			{dur: 10 * time.Millisecond, scale: scale, allocBytes: 2048, cycles: 100, dram: 7},
			{dur: 20 * time.Millisecond, scale: scale, allocBytes: 2048, cycles: 300, dram: 9},
			{dur: 30 * time.Millisecond, scale: scale, allocBytes: 2048, cycles: 200, dram: 8},
		}
	}
	one := endToEndMetrics(samples(1), []float64{0.5, 0.25, 1}, 2)
	two := endToEndMetrics(samples(2), []float64{1, 0.5, 2}, 2)
	for name, factor := range map[string]float64{
		"setup_s": 2, "op_ms_p50": 2, "op_ms_p90": 2, "frames_per_s": 0.5,
		"alloc_kb_per_op": 1, "sim_cycles_per_frame": 1, "sim_dram_accesses_per_frame": 1,
	} {
		if got, want := two[name].Value, one[name].Value*factor; math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s at scale 2 = %v, want %v (%v at scale 1)", name, got, want, one[name].Value)
		}
	}
	if got := one["op_ms_p50"].Value; got != 20 {
		t.Errorf("op_ms_p50 at scale 1 = %v, want 20", got)
	}
	if got := one["frames_per_s"].Value; math.Abs(got-100) > 1e-9 {
		t.Errorf("frames_per_s at scale 1 = %v, want 100 (6 frames in 60 ms)", got)
	}
	// Ops of simulations run at different host speeds are each scaled by
	// their own: 20 ms at scale 1 and 10 ms at scale 2 are the same op.
	mixed := endToEndMetrics([]opSample{{dur: 20 * time.Millisecond, scale: 1}, {dur: 10 * time.Millisecond, scale: 2}}, []float64{1}, 1)
	if got := mixed["op_ms_p90"].Value; math.Abs(got-20) > 1e-9 {
		t.Errorf("op_ms_p90 of two ops scaled to 20 ms = %v, want 20", got)
	}
}
