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
)

// TestMain runs main itself, with the process's arguments, when TRACER_MAIN
// is set: the tests start the test binary that way to observe a real
// invocation's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("TRACER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracer runs main with args in a child process and returns its exit
// status, stdout and stderr.
func tracer(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACER_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	code := 0
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// small is the screen of the tests' traces.
var small = []string{"-w", "64", "-h", "64"}

// record writes a small trace of Jet's frame 1 and returns its path.
func record(t *testing.T) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "jet.trace")
	code, stdout, stderr := tracer(t, append([]string{"-record", file, "-game", "Jet", "-frame", "1"}, small...)...)
	if code != 0 || !strings.HasPrefix(stdout, "recorded Jet frame 1: ") {
		t.Fatalf("record: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	return file
}

// TestBadValuesRefused pins that a value no recording or replay can run
// with exits 2 with one tracer line before anything renders or a replay
// reads its trace: nothing on stdout and no trace file written.
func TestBadValuesRefused(t *testing.T) {
	trace := record(t)
	out := filepath.Join(t.TempDir(), "out.trace")
	for _, args := range [][]string{
		{"-record", out, "-game", "Nope"},
		{"-record", out, "-frame", "-3"},
		{"-record", out, "-w", "0"},
		{"-record", out, "-h", "-1"},
		append([]string{"-replay", trace, "-policy", "bogus"}, small...),
		append([]string{"-replay", trace, "-rus", "0"}, small...),
		append([]string{"-replay", trace, "-passes", "0"}, small...),
		{"-replay", trace, "-w", "0", "-h", "64"},
	} {
		code, stdout, stderr := tracer(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "tracer: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("tracer %s: exit %d, stdout %q, stderr %q; want exit 2 and one tracer line",
				strings.Join(args, " "), code, stdout, stderr)
		}
		if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("tracer %s wrote %s (stat: %v)", strings.Join(args, " "), out, err)
			os.Remove(out)
		}
	}
}

// TestReplay replays a recorded trace. A replay whose screen differs from
// the trace's depends on the file, not on a flag value alone, so it exits 1.
func TestReplay(t *testing.T) {
	trace := record(t)
	if code, stdout, stderr := tracer(t, append([]string{"-replay", trace, "-passes", "2"}, small...)...); code != 0 || strings.Count(stdout, "\npass ") != 2 {
		t.Errorf("replay: exit %d, stdout %q, stderr %q; want two passes", code, stdout, stderr)
	}
	if code, _, stderr := tracer(t, "-replay", trace); code != 1 || stderr == "" {
		t.Errorf("replay at another screen: exit %d, stderr %q; want exit 1 with the reason", code, stderr)
	}
}
