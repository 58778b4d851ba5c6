package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// seededStore opens a store in a fresh directory, which it also returns,
// holding two entries under keys.
func seededStore(t *testing.T) (st *resultstore.Store, dir string, keys []string) {
	t.Helper()
	dir = t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys = []string{
		resultstore.KeySpec{Schema: 1, Game: "A"}.Key(),
		resultstore.KeySpec{Schema: 1, Game: "B"}.Key(),
	}
	for i, k := range keys {
		if err := st.Put(k, "seed entry", []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	return st, dir, keys
}

func runCmd(t *testing.T, st *resultstore.Store, cmd string, args ...string) (int, string) {
	t.Helper()
	var b strings.Builder
	code, err := run(st, cmd, args, &b)
	if err != nil && cmd != "bogus" {
		t.Fatalf("%s: %v", cmd, err)
	}
	return code, b.String()
}

func TestLs(t *testing.T) {
	st, _, keys := seededStore(t)
	code, out := runCmd(t, st, "ls")
	if code != 0 {
		t.Fatalf("ls exit %d", code)
	}
	for _, k := range keys {
		if !strings.Contains(out, k[:16]) {
			t.Errorf("ls output missing key %s…", k[:16])
		}
	}
	if !strings.Contains(out, "2 entries") || !strings.Contains(out, "seed entry") {
		t.Errorf("ls output malformed:\n%s", out)
	}
}

func TestStats(t *testing.T) {
	st, _, _ := seededStore(t)
	code, out := runCmd(t, st, "stats")
	if code != 0 {
		t.Fatalf("stats exit %d", code)
	}
	for _, want := range []string{"entries:     2", "quarantined: 0", "locks:       0"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestVerifyCleanAndCorrupt(t *testing.T) {
	st, dir, keys := seededStore(t)
	code, out := runCmd(t, st, "verify")
	if code != 0 || !strings.Contains(out, "ok: 2  quarantined: 0") {
		t.Fatalf("clean verify: exit %d, out %q", code, out)
	}
	// Damage one entry: verify must quarantine it and exit 1.
	matches, err := filepath.Glob(filepath.Join(dir, "objects", "*", keys[0]+".res"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("entry file for %s not found", keys[0][:16])
	}
	if err := os.Truncate(matches[0], 5); err != nil {
		t.Fatal(err)
	}
	code, out = runCmd(t, st, "verify")
	if code != 1 || !strings.Contains(out, "ok: 1  quarantined: 1") {
		t.Fatalf("corrupt verify: exit %d, out %q", code, out)
	}
}

func TestGCDryRunAndReal(t *testing.T) {
	st, dir, keys := seededStore(t)
	old := time.Now().Add(-48 * time.Hour)
	matches, _ := filepath.Glob(filepath.Join(dir, "objects", "*", keys[0]+".res"))
	if len(matches) != 1 {
		t.Fatal("aged entry not found")
	}
	if err := os.Chtimes(matches[0], old, old); err != nil {
		t.Fatal(err)
	}

	code, out := runCmd(t, st, "gc", "-older-than", "24h", "-dry-run")
	if code != 0 || !strings.Contains(out, "would remove 1 of 2 entries") {
		t.Fatalf("gc dry-run: exit %d, out %q", code, out)
	}
	if s, _ := st.Stats(); s.Entries != 2 {
		t.Fatal("dry-run removed entries")
	}

	code, out = runCmd(t, st, "gc", "-older-than", "24h")
	if code != 0 || !strings.Contains(out, "removed 1 entries") {
		t.Fatalf("gc: exit %d, out %q", code, out)
	}
	if s, _ := st.Stats(); s.Entries != 1 {
		t.Fatalf("gc left %d entries, want 1", s.Entries)
	}
}

func TestUnknownCommand(t *testing.T) {
	st, _, _ := seededStore(t)
	code, err := run(st, "bogus", nil, &strings.Builder{})
	if code != 2 || err == nil {
		t.Fatalf("unknown command: exit %d, err %v", code, err)
	}
}
