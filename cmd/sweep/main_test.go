package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	libra "repro"
)

// TestMain runs main itself, with the process's arguments, when SWEEP_MAIN
// is set: TestBadValuesRefused starts the test binary that way to observe a
// real invocation's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadValuesRefused pins that a sweep point no simulation can run with,
// an L2 above libra.MaxL2KB or one no cache can be built from, an unknown
// axis or game and a value that is not an integer exit 2 with one sweep
// line before any point simulates.
func TestBadValuesRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-axis", "l2kb", "-values", "131072"},
		{"-axis", "l2kb", "-values", "256,576"},
		{"-axis", "bogus"},
		{"-axis", "rus", "-values", "x"},
		{"-game", "Nope"},
	} {
		args = append(args, "-frames", "2", "-quiet")
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SWEEP_MAIN=1", "LIBRA_RESULT_DIR=")
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		code := 0
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		stderr := errOut.String()
		if code != 2 || out.Len() != 0 || !strings.HasPrefix(stderr, "sweep: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("sweep %s: exit %d, stdout %q, stderr %q; want exit 2 and one sweep line",
				strings.Join(args, " "), code, out.String(), stderr)
		}
	}
}

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
