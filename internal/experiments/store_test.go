package experiments

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/resultstore"
)

// storeParams is the cheapest scale that still renders real frames.
func storeParams() Params {
	return Params{ScreenW: 160, ScreenH: 96, Frames: 2, Warmup: 1, L2KB: 256}
}

// storeRunner builds a runner backed by a store in dir with a pinned
// fingerprint (the test binary has no VCS stamp, and tests must not depend
// on one).
func storeRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	r := NewRunner(storeParams())
	r.SetFingerprint("test-fp")
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.SetStore(st)
	return r
}

// TestStoreWarmRunSimulatesNothing is the core acceptance property: a second
// runner sharing the store directory recalls every result with zero
// simulations, and the recalled runs equal the originals — including when
// the caller's configuration asks for a render farm, which is excluded from
// the key by design.
func TestStoreWarmRunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	cold := storeRunner(t, dir)
	games := []string{"Jet", "CCS"}
	coldRuns := map[string]*GameRun{}
	for _, g := range games {
		run, err := cold.TryRun(cold.Baseline(), g)
		if err != nil {
			t.Fatal(err)
		}
		coldRuns[g] = run
	}
	if cold.Sims() != int64(len(games)) {
		t.Fatalf("cold runner executed %d sims, want %d", cold.Sims(), len(games))
	}

	warm := storeRunner(t, dir)
	warm.SetJobs(1)
	farm := warm.Baseline()
	farm.SimWorkers = 4 // host parallelism must not change the key
	for _, g := range games {
		run, err := warm.TryRun(farm, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run.Frames, coldRuns[g].Frames) {
			t.Errorf("%s: recalled frames differ from simulated frames", g)
		}
		if run.Summary != coldRuns[g].Summary {
			t.Errorf("%s: recalled summary drifted: %+v vs %+v", g, run.Summary, coldRuns[g].Summary)
		}
	}
	if warm.Sims() != 0 {
		t.Fatalf("warm runner executed %d sims, want 0", warm.Sims())
	}
	if hits := warm.Store().Metrics().Counter(resultstore.MetricHit).Value(); hits != int64(len(games)) {
		t.Errorf("warm store hits = %d, want %d", hits, len(games))
	}
}

// TestStoreCorruptEntryResimulates damages a stored entry on disk; the next
// run must quarantine it, re-simulate, and produce the identical result.
func TestStoreCorruptEntryResimulates(t *testing.T) {
	dir := t.TempDir()
	cold := storeRunner(t, dir)
	want, err := cold.TryRun(cold.Baseline(), "Jet")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.res"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entry glob: %v (%d entries)", err, len(entries))
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := storeRunner(t, dir)
	got, err := warm.TryRun(warm.Baseline(), "Jet")
	if err != nil {
		t.Fatalf("corrupt entry must degrade to re-simulation, got error: %v", err)
	}
	if warm.Sims() != 1 {
		t.Errorf("corrupt entry produced %d sims, want 1 (re-simulation)", warm.Sims())
	}
	if c := warm.Store().Metrics().Counter(resultstore.MetricCorrupt).Value(); c != 1 {
		t.Errorf("store_corrupt = %d, want 1", c)
	}
	if !reflect.DeepEqual(got.Frames, want.Frames) {
		t.Error("re-simulated frames differ from the original run")
	}
	// The re-simulated result was re-published: a third runner hits.
	again := storeRunner(t, dir)
	if _, err := again.TryRun(again.Baseline(), "Jet"); err != nil {
		t.Fatal(err)
	}
	if again.Sims() != 0 {
		t.Errorf("re-published entry missed: %d sims", again.Sims())
	}
}

// TestStoreFingerprintAndSchemaInvalidate: results computed by different
// code (fingerprint) or written under a different payload schema must miss
// cleanly, never be served.
func TestStoreFingerprintAndSchemaInvalidate(t *testing.T) {
	dir := t.TempDir()
	cold := storeRunner(t, dir)
	if _, err := cold.TryRun(cold.Baseline(), "Jet"); err != nil {
		t.Fatal(err)
	}

	other := storeRunner(t, dir)
	other.SetFingerprint("other-code")
	if _, err := other.TryRun(other.Baseline(), "Jet"); err != nil {
		t.Fatal(err)
	}
	if other.Sims() != 1 {
		t.Errorf("fingerprint change hit the old entry (%d sims, want 1)", other.Sims())
	}

	spec, err := cold.KeySpec(cold.Baseline(), "Jet")
	if err != nil {
		t.Fatal(err)
	}
	bumped := spec
	bumped.Schema++
	if spec.Key() == bumped.Key() {
		t.Error("schema bump did not change the store key")
	}
}

// TestStoreSharedKeyOneSimulation races two runners (separate in-memory
// caches, one shared store) at the same key: the per-key writer lock plus
// the recheck-after-lock must yield exactly one simulation in total.
func TestStoreSharedKeyOneSimulation(t *testing.T) {
	dir := t.TempDir()
	a, b := storeRunner(t, dir), storeRunner(t, dir)
	runs := make([]*GameRun, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, r := range []*Runner{a, b} {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			runs[i], errs[i] = r.TryRun(r.Baseline(), "Jet")
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
	}
	if total := a.Sims() + b.Sims(); total != 1 {
		t.Fatalf("racing runners executed %d sims in total, want exactly 1", total)
	}
	if !reflect.DeepEqual(runs[0].Frames, runs[1].Frames) {
		t.Error("racing runners disagree on the result")
	}
}

// Cross-process versions of the same properties, TestHelperProcess-style:
// the test re-executes its own binary; the child runs one store-backed
// simulation and prints its sim count.

// TestHelperStoreRun is the subprocess body (skipped as a normal test).
func TestHelperStoreRun(t *testing.T) {
	dir := os.Getenv("STORE_HELPER_DIR")
	if dir == "" {
		t.Skip("helper process entry point")
	}
	r := storeRunner(t, dir)
	if os.Getenv("STORE_HELPER_HOLD_LOCK") == "1" {
		// Acquire the key's writer lock and exit without releasing it —
		// a crashed writer, as seen by the parent test.
		spec, err := r.KeySpec(r.Baseline(), "Jet")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Store().Lock(spec.Key()); err != nil {
			t.Fatal(err)
		}
		fmt.Println("LOCKED")
		os.Exit(0)
	}
	if _, err := r.TryRun(r.Baseline(), "Jet"); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("SIMS=%d\n", r.Sims())
	os.Exit(0)
}

func helperCmd(t *testing.T, dir string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperStoreRun$", "-test.v=false")
	cmd.Env = append(os.Environ(), "STORE_HELPER_DIR="+dir)
	cmd.Env = append(cmd.Env, extraEnv...)
	return cmd
}

func helperSims(t *testing.T, out []byte) int {
	t.Helper()
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "SIMS="); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatalf("bad SIMS line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("helper output has no SIMS line:\n%s", out)
	return 0
}

// TestStoreCrossProcessRace races two OS processes at one key through the
// shared directory: exactly one may simulate.
func TestStoreCrossProcessRace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	cmds := []*exec.Cmd{helperCmd(t, dir), helperCmd(t, dir)}
	outs := make([][]byte, len(cmds))
	var wg sync.WaitGroup
	for i, cmd := range cmds {
		wg.Add(1)
		go func(i int, cmd *exec.Cmd) {
			defer wg.Done()
			out, err := cmd.CombinedOutput()
			outs[i] = out
			if err != nil {
				t.Errorf("helper %d: %v\n%s", i, err, out)
			}
		}(i, cmd)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	total := helperSims(t, outs[0]) + helperSims(t, outs[1])
	if total != 1 {
		t.Fatalf("two processes executed %d sims in total, want exactly 1", total)
	}
}

// TestStoreStaleLockTakeoverCrossProcess lets a child process take the
// writer lock and die holding it; a fresh run must detect the dead holder,
// take the lock over, and complete normally.
func TestStoreStaleLockTakeoverCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	out, err := helperCmd(t, dir, "STORE_HELPER_HOLD_LOCK=1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "LOCKED") {
		t.Fatalf("lock-holder helper failed: %v\n%s", err, out)
	}
	if n, _ := filepath.Glob(filepath.Join(dir, "locks", "*.lock")); len(n) != 1 {
		t.Fatalf("helper did not leave a lock behind (%d)", len(n))
	}

	r := storeRunner(t, dir)
	if _, err := r.TryRun(r.Baseline(), "Jet"); err != nil {
		t.Fatalf("run behind a stale lock failed: %v", err)
	}
	if r.Sims() != 1 {
		t.Errorf("stale-lock run executed %d sims, want 1", r.Sims())
	}
	if tk := r.Store().Metrics().Counter(resultstore.MetricTakeover).Value(); tk != 1 {
		t.Errorf("takeover counter = %d, want 1", tk)
	}
}

// TestSetStoreDefaultsFingerprint: attaching a store without an explicit
// fingerprint adopts the binary's (never an empty one, which would alias
// across rebuilds).
func TestSetStoreDefaultsFingerprint(t *testing.T) {
	r := NewRunner(storeParams())
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r.SetStore(st)
	if r.fingerprint == "" {
		t.Fatal("SetStore left the fingerprint empty")
	}
}

// TestDefaultResultDir pins the store directory used when no explicit
// -result-dir is given: $LIBRA_RESULT_DIR, or "" (store disabled).
func TestDefaultResultDir(t *testing.T) {
	resultDir := func() string {
		var dir string
		ResultDirVar(flag.NewFlagSet("t", flag.ContinueOnError), &dir, "result-dir", "")
		return dir
	}
	t.Setenv("LIBRA_RESULT_DIR", "")
	if d := resultDir(); d != "" {
		t.Fatalf("unset env: %q, want empty (store disabled)", d)
	}
	t.Setenv("LIBRA_RESULT_DIR", "/some/dir")
	if d := resultDir(); d != "/some/dir" {
		t.Fatalf("-result-dir default = %q", d)
	}
}

// TestStoreDisabledRunnerStillWorks pins the default: no store, pure
// in-memory behavior.
func TestStoreDisabledRunnerStillWorks(t *testing.T) {
	r := NewRunner(storeParams())
	if r.Store() != nil {
		t.Fatal("fresh runner must have no store attached")
	}
	if _, err := r.TryRun(r.Baseline(), "Jet"); err != nil {
		t.Fatal(err)
	}
	if r.Sims() != 1 {
		t.Fatalf("sims = %d, want 1", r.Sims())
	}
}
