package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 4}, 4},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=n), the
// definition the benchmark's spread figures use.
func TestQuantilesMatchPython(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		in   []float64
		n    int
		want []float64
	}{
		{seq(10), 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, 4, []float64{1.5, 3.0, 4.5}},
		{[]float64{3.5, 1.25}, 4, []float64{0.6875, 2.375, 4.0625}},
		{[]float64{2, 9, 4, 7}, 10, []float64{1, 2, 3, 4, 5.5, 7, 8, 9, 10}},
	} {
		got := quantiles(c.in, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v, %d) = %v, want %v", c.in, c.n, got, c.want)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v, %d) = %v, want %v", c.in, c.n, got, c.want)
				break
			}
		}
	}
}

// p90 is the ninth decile cut; with 100 samples ten of them lie beyond it.
func TestP90(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	p90 := quantiles(xs, 10)[8]
	if p90 != 90.9 {
		t.Fatalf("p90 of 1..100 = %v, want 90.9", p90)
	}
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond p90, want 10", beyond)
	}
}

func TestSpreadAndWorseBy(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worseBy lower = %v, want 0.1", got)
	}
	if got := worseBy(100, 110, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("worseBy higher = %v, want -0.1", got)
	}
}
