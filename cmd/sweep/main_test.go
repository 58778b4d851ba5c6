package main

import (
	"reflect"
	"testing"

	libra "repro"
)

func TestParsePoints(t *testing.T) {
	cases := []struct {
		axis, values string
		want         []int
	}{
		{"cores", "", []int{2, 4, 8, 16}},
		{"rus", "", []int{1, 2, 3, 4}},
		{"l2kb", "", []int{256, 512, 1024, 2048}},
		{"rus", "1, 2", []int{1, 2}},
	}
	for _, tc := range cases {
		got, err := parsePoints(tc.axis, tc.values)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parsePoints(%q, %q) = %v, %v; want %v", tc.axis, tc.values, got, err, tc.want)
		}
	}
}

// TestUnknownAxisRejected pins that -values does not hide a bad -axis:
// before, every "point" of such a sweep ran the same configuration.
func TestUnknownAxisRejected(t *testing.T) {
	for _, values := range []string{"", "1,2"} {
		if _, err := parsePoints("bogus", values); err == nil {
			t.Errorf("parsePoints(bogus, %q) accepted an unknown axis", values)
		}
	}
	if _, err := parsePoints("rus", "1,x"); err == nil {
		t.Error("parsePoints accepted a non-integer value")
	}
}

func TestPointSetsOnlyItsAxis(t *testing.T) {
	base := libra.DefaultConfig(64, 64)
	base.Policy = libra.PolicyLIBRA
	base.L2KB = 1024
	base.RasterUnits = 2
	base.CoresPerRU = 4
	with := func(f func(*libra.Config)) libra.Config { c := base; f(&c); return c }
	cases := []struct {
		axis string
		v    int
		want libra.Config
	}{
		{"cores", 8, with(func(c *libra.Config) { c.RasterUnits, c.CoresPerRU, c.Policy = 1, 8, libra.PolicyZOrder })},
		{"rus", 3, with(func(c *libra.Config) { c.RasterUnits = 3 })},
		{"rus", 1, with(func(c *libra.Config) { c.RasterUnits, c.Policy = 1, libra.PolicyZOrder })},
		{"l2kb", 256, with(func(c *libra.Config) { c.L2KB = 256 })},
	}
	for _, tc := range cases {
		if got := point(base, tc.axis, tc.v); got != tc.want {
			t.Errorf("point(%s=%d) = %+v, want %+v", tc.axis, tc.v, got, tc.want)
		}
	}
}
