package experiments

import (
	"math"
	"testing"
)

// TestRatioGuardsZeroDenominator pins the degenerate-input behaviour of the
// shared ratio helper: figure code feeds it zero denominators on zero-work
// frame windows, and the result must be finite (0), never NaN or Inf.
func TestRatioGuardsZeroDenominator(t *testing.T) {
	cases := []struct {
		num, den, want float64
	}{
		{0, 0, 0},
		{5, 0, 0},
		{-3, 0, 0},
		{6, 3, 2},
		{1, 4, 0.25},
	}
	for _, c := range cases {
		got := ratio(c.num, c.den)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("ratio(%v, %v) is not finite: %v", c.num, c.den, got)
		}
		if got != c.want {
			t.Errorf("ratio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
}

// TestBurstinessEmptyAndFlat covers the zero-work edges of the Fig. 7
// burstiness reduction: no intervals and all-zero intervals must both report
// finite statistics.
func TestBurstinessEmptyAndFlat(t *testing.T) {
	if cv, peak, avg := burstiness(nil); cv != 0 || peak != 0 || avg != 0 {
		t.Errorf("burstiness(nil) = %v, %v, %v, want zeros", cv, peak, avg)
	}
	if cv, peak, avg := burstiness([]uint32{0, 0, 0}); cv != 0 || peak != 0 || avg != 0 {
		t.Errorf("burstiness(zeros) = %v, %v, %v, want zeros", cv, peak, avg)
	}
	cv, peak, avg := burstiness([]uint32{2, 2, 2, 2})
	if cv != 0 || peak != 2 || avg != 2 {
		t.Errorf("flat series: cv=%v peak=%v mean=%v, want 0, 2, 2", cv, peak, avg)
	}
}

// TestGainPctFinite pins the zero-cycle behaviour of the suite and sweep
// comparison columns: a degenerate run must print +0.00, not NaN or Inf.
func TestGainPctFinite(t *testing.T) {
	if g := GainPct(100, 0); g != 0 {
		t.Errorf("GainPct(100, 0) = %v, want 0", g)
	}
	if g := GainPct(0, 0); g != 0 {
		t.Errorf("GainPct(0, 0) = %v, want 0", g)
	}
	if g := GainPct(150, 100); g != 50 {
		t.Errorf("GainPct(150, 100) = %v, want 50", g)
	}
	if g := GainPct(0, 100); math.IsNaN(g) || g != -100 {
		t.Errorf("GainPct(0, 100) = %v, want -100", g)
	}
	if m := mean(nil); m != 0 {
		t.Errorf("mean(nil) = %v, want 0", m)
	}
}
