package stats

import (
	"math/rand"
	"testing"
)

func TestLatencyTrackerBasics(t *testing.T) {
	var tr LatencyTracker
	if tr.Mean() != 0 || tr.Max() != 0 || tr.Percentile(0.5) != 0 {
		t.Error("empty tracker should report zeros")
	}
	for i := 0; i < 100; i++ {
		tr.Record(10)
	}
	if tr.Mean() != 10 {
		t.Errorf("mean=%v", tr.Mean())
	}
	if tr.Max() != 10 {
		t.Errorf("max=%d", tr.Max())
	}
	// All samples are 10 → p50 upper bound is the bucket edge 16, clamped
	// to max.
	if p := tr.Percentile(0.5); p != 10 && p != 16 {
		t.Errorf("p50 = %d", p)
	}
}

func TestLatencyTrackerPercentiles(t *testing.T) {
	var tr LatencyTracker
	// 90 fast samples, 10 slow ones.
	for i := 0; i < 90; i++ {
		tr.Record(8)
	}
	for i := 0; i < 10; i++ {
		tr.Record(1000)
	}
	p50 := tr.Percentile(0.5)
	p99 := tr.Percentile(0.99)
	if p50 > 16 {
		t.Errorf("p50 = %d, want <= 16", p50)
	}
	if p99 < 512 {
		t.Errorf("p99 = %d, want >= 512", p99)
	}
	if tr.Percentile(1) < p99 {
		t.Error("p100 must not be below p99")
	}
}

func TestLatencyTrackerMonotonicPercentiles(t *testing.T) {
	var tr LatencyTracker
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		tr.Record(int64(rng.Intn(10000)))
	}
	prev := int64(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		p := tr.Percentile(q)
		if p < prev {
			t.Fatalf("percentiles not monotone at q=%v: %d < %d", q, p, prev)
		}
		prev = p
	}
}

func TestLatencyTrackerNegativeClamped(t *testing.T) {
	var tr LatencyTracker
	tr.Record(-5)
	if tr.Max() != 0 {
		t.Error("negative sample should clamp to zero")
	}
	tr.Record(10)
	if tr.Mean() != 5 {
		t.Errorf("mean = %v, want 5: the clamped sample counts as 0", tr.Mean())
	}
}

func TestLatencyTrackerMerge(t *testing.T) {
	var a, b LatencyTracker
	a.Record(10)
	b.Record(1000)
	a.Merge(&b)
	if a.Mean() != 505 || a.Max() != 1000 {
		t.Errorf("merge failed: mean=%v max=%d", a.Mean(), a.Max())
	}
}
