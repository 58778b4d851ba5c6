package raster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refFootprintLevel is the mip rule in its logarithm form,
// int(0.5·log2 ρ) for ρ > 1 and 0 otherwise, evaluated in float64 as the
// renderer once did for every fragment.
func refFootprintLevel(rho float32) int {
	r := float64(rho)
	if r <= 1 {
		return 0
	}
	return int(0.5 * math.Log2(r))
}

// TestMipLevel checks footprintLevel's exponent read-off against the
// logarithm form: every float32 exponent (both signs) with the lowest,
// highest and power-of-two-adjacent mantissas, NaN and ±Inf, and a seeded
// random sample of bit patterns. A float32 has 2^32 patterns, so an
// exhaustive sweep is possible but too slow for every test run.
func TestMipLevel(t *testing.T) {
	check := func(rho float32) {
		t.Helper()
		if got, want := footprintLevel(rho), refFootprintLevel(rho); got != want {
			t.Fatalf("footprintLevel(%g [%#08x]) = %d, log2 form gives %d",
				rho, math.Float32bits(rho), got, want)
		}
	}
	mantissas := []uint32{0, 1, 2, 1<<22 - 1, 1 << 22, 1<<22 + 1, 1<<23 - 2, 1<<23 - 1}
	for _, sign := range []uint32{0, 1 << 31} {
		for e := uint32(0); e < 256; e++ {
			for _, m := range mantissas {
				check(math.Float32frombits(sign | e<<23 | m))
			}
		}
	}
	check(float32(math.NaN()))
	check(float32(math.Inf(1)))
	check(float32(math.Inf(-1)))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		check(math.Float32frombits(rng.Uint32()))
	}
}

// TestMipLevelDerivatives checks mipLevel end to end against the
// logarithm form applied to the float64 maximum (math.Max) of the two
// squared footprints, on seeded random derivatives spanning magnification
// to far minification, with exact zeros, NaN and ±Inf mixed in.
func TestMipLevelDerivatives(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	special := []float32{0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	d := func() float32 {
		if rng.Intn(8) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float32(rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-30)))
	}
	for i := 0; i < 1<<16; i++ {
		duvx, duvy := geom.V2(d(), d()), geom.V2(d(), d())
		texW, texH := 1<<rng.Intn(13), 1<<rng.Intn(13)
		fx, fy := duvx.X*float32(texW), duvx.Y*float32(texH)
		gx, gy := duvy.X*float32(texW), duvy.Y*float32(texH)
		rho := math.Max(float64(fx*fx+fy*fy), float64(gx*gx+gy*gy))
		want := 0
		if !(rho <= 1) {
			want = int(0.5 * math.Log2(rho))
		}
		if got := mipLevel(duvx, duvy, texW, texH); got != want {
			t.Fatalf("mipLevel(%v, %v, %d, %d) = %d, log2 form gives %d",
				duvx, duvy, texW, texH, got, want)
		}
	}
}
