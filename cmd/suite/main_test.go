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

// TestMain runs main itself, with the process's arguments, when SUITE_MAIN
// is set: TestBadValuesRefused starts the test binary that way to observe a
// real invocation's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("SUITE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadValuesRefused pins that a screen or L2 no simulation can run with,
// an unknown suite and a traced run the suite does not hold exit 2 with one
// suite line before anything simulates or opens: nothing on stdout, no
// progress line, no trace file and no result store directory.
func TestBadValuesRefused(t *testing.T) {
	tmp := t.TempDir()
	store := filepath.Join(tmp, "store")
	traceFile := filepath.Join(tmp, "trace.json")
	for _, args := range [][]string{
		{"-w", "0"},
		{"-h", "-1"},
		{"-w", "20000"},
		{"-l2kb", "131072"},
		{"-suite", "bogus"},
		{"-trace-out", traceFile, "-trace-game", "Nope"},
	} {
		args = append([]string{"-suite", "mem", "-frames", "2", "-result-dir", store}, args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SUITE_MAIN=1", "LIBRA_RESULT_DIR=")
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
		if code != 2 || out.Len() != 0 || !strings.HasPrefix(stderr, "suite: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("suite %s: exit %d, stdout %q, stderr %q; want exit 2 and one suite line",
				strings.Join(args, " "), code, out.String(), stderr)
		}
		for _, path := range []string{store, traceFile} {
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("suite %s left %s behind (stat: %v)", strings.Join(args, " "), path, err)
				os.RemoveAll(path)
			}
		}
	}
}
