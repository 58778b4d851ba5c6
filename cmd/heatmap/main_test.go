package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself, with the process's arguments, when
// HEATMAP_MAIN is set: TestBadValuesRefused starts the test binary that way
// to observe a real invocation's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("HEATMAP_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadValuesRefused pins that a screen no simulation can run with and an
// unknown game exit 2 with one heatmap line before anything simulates.
func TestBadValuesRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-w", "0"},
		{"-h", "-1"},
		{"-w", "20000"},
		{"-game", "Nope"},
	} {
		args = append([]string{"-frames", "2"}, args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "HEATMAP_MAIN=1")
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
		if code != 2 || out.Len() != 0 || !strings.HasPrefix(stderr, "heatmap: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("heatmap %s: exit %d, stdout %q, stderr %q; want exit 2 and one heatmap line",
				strings.Join(args, " "), code, out.String(), stderr)
		}
	}
}
