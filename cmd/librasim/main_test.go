package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain runs main itself, with the process's arguments, when
// LIBRASIM_MAIN is set: the tests below start the test binary that way to
// observe a real invocation's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("LIBRASIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// librasim runs main with args in a child process, without a result store,
// and returns its exit status, stdout and stderr.
func librasim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LIBRASIM_MAIN=1", "LIBRA_RESULT_DIR=")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestBadValuesRefused pins that a configuration no simulation can run
// with, an unknown game or experiment and an unknown output format exit 2
// with one librasim line before anything simulates or opens the result
// store, for single runs and experiments alike.
func TestBadValuesRefused(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{"-game", "SuS", "-rus", "0"},
		{"-game", "SuS", "-cores", "0"},
		{"-game", "SuS", "-policy", "bogus"},
		{"-game", "SuS", "-w", "0"},
		{"-game", "SuS", "-l2kb", "131072"},
		{"-game", "Nope"},
		{"-experiment", "fig02", "-w", "0"},
		{"-experiment", "fig02", "-l2kb", "131072"},
		{"-experiment", "nope"},
		{"-experiment", "fig06a", "-format", "nope"},
	} {
		args = append([]string{"-result-dir", store}, args...)
		code, stdout, stderr := librasim(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "librasim: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("librasim %s: exit %d, stdout %q, stderr %q; want exit 2 and one librasim line",
				strings.Join(args, " "), code, stdout, stderr)
		}
		if _, err := os.Stat(store); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("librasim %s left a result store behind (stat: %v)", strings.Join(args, " "), err)
			os.RemoveAll(store)
		}
	}
}

// TestExperimentScaleFlags pins that -w, -h, -frames and -l2kb given with
// -experiment override its standard (or -paper) scale, a given -frames with
// its default warm-up: the printed result equals the experiment run in
// process at the expected scale. fig01 reads every frame after the warm-up.
func TestExperimentScaleFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("renders frames")
	}
	cases := []struct {
		args []string
		want experiments.Params
	}{
		{[]string{"-w", "64", "-h", "64", "-frames", "3", "-l2kb", "16"},
			experiments.Params{ScreenW: 64, ScreenH: 64, Frames: 3, Warmup: 2, L2KB: 16}},
		{[]string{"-paper", "-w", "64", "-h", "96"},
			experiments.Params{ScreenW: 64, ScreenH: 96, Frames: 25, Warmup: 3}},
	}
	for _, tc := range cases {
		raw, err := experiments.NewRunner(tc.want).Registry()["fig01"]().JSON()
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-experiment", "fig01", "-format", "json"}, tc.args...)
		code, stdout, stderr := librasim(t, args...)
		if code != 0 {
			t.Fatalf("librasim %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
		}
		if want := string(raw) + "\n"; stdout != want {
			t.Errorf("librasim %s printed\n%s\nwant the result at %+v:\n%s", strings.Join(args, " "), stdout, tc.want, want)
		}
	}
}
