package resultstore

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLockAcquireRelease(t *testing.T) {
	st := testStore(t)
	key := KeySpec{Schema: 1, Game: "L"}.Key()
	release, err := st.Lock(key)
	if err != nil {
		t.Fatal(err)
	}
	lockPath := filepath.Join(st.dir, "locks", key+".lock")
	if _, err := os.Stat(lockPath); err != nil {
		t.Fatalf("lock file missing while held: %v", err)
	}
	release()
	if _, err := os.Stat(lockPath); !os.IsNotExist(err) {
		t.Fatal("lock file survived release")
	}
	// Release is idempotent, including when a new holder has the lock.
	release2, err := st.Lock(key)
	if err != nil {
		t.Fatal(err)
	}
	release() // stale release must not steal the new holder's lock
	if _, err := os.Stat(lockPath); err != nil {
		t.Fatal("stale release removed a lock it no longer owned... ")
	}
	release2()
	// No private .self files left behind.
	if n := countFiles(filepath.Join(st.dir, "locks")); n != 0 {
		t.Fatalf("%d files left in locks/ after release", n)
	}
}

// TestLockMutualExclusion hammers one key from many goroutines. File locks
// are invisible to the race detector, so overlap is detected explicitly: a
// CAS guard that only one holder may flip at a time.
func TestLockMutualExclusion(t *testing.T) {
	st := testStore(t)
	key := KeySpec{Schema: 1, Game: "MX"}.Key()
	const workers = 8
	var inside, entries atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := st.Lock(key)
			if err != nil {
				t.Error(err)
				return
			}
			if !inside.CompareAndSwap(0, 1) {
				t.Error("two goroutines inside the critical section")
			}
			entries.Add(1)
			inside.Store(0)
			release()
		}()
	}
	wg.Wait()
	if entries.Load() != workers {
		t.Fatalf("critical section ran %d times, want %d", entries.Load(), workers)
	}
}

// TestStaleLockTakeover plants lock files that cannot belong to a live
// cooperating writer — dead pid, garbage body, empty body — and asserts a
// new writer claims the key immediately (no poll wait) and ticks the
// takeover counter.
func TestStaleLockTakeover(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"dead-pid", []byte(fmt.Sprintf(`{"pid":%d}`, deadPid(t)))},
		{"garbage-body", []byte("not json")},
		{"empty-body", nil},
		{"zero-pid", []byte(`{"pid":0}`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := testStore(t)
			key := KeySpec{Schema: 1, Game: c.name}.Key()
			lockPath := filepath.Join(st.dir, "locks", key+".lock")
			if err := os.WriteFile(lockPath, c.body, 0o644); err != nil {
				t.Fatal(err)
			}
			release, err := st.Lock(key)
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			if got := counter(st, MetricTakeover); got != 1 {
				t.Errorf("takeover counter = %d, want 1", got)
			}
		})
	}
}

// deadPid returns the pid of a real process that has already been reaped —
// the honest version of "crashed lock holder". Falls back to an absurdly
// high pid if the helper cannot be spawned.
func deadPid(t *testing.T) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcessExit$")
	cmd.Env = append(os.Environ(), "RESULTSTORE_HELPER=exit")
	if err := cmd.Run(); err != nil {
		t.Logf("helper spawn failed (%v); using sentinel pid", err)
		return 1 << 22
	}
	return cmd.Process.Pid
}

// TestHelperProcessExit is not a test: it is the subprocess body used by
// deadPid and the cross-process experiments tests.
func TestHelperProcessExit(t *testing.T) {
	if os.Getenv("RESULTSTORE_HELPER") != "exit" {
		t.Skip("helper process entry point")
	}
	os.Exit(0)
}

func TestPidAlive(t *testing.T) {
	if !pidAlive(os.Getpid()) {
		t.Error("own pid reported dead")
	}
	if pidAlive(deadPid(t)) {
		t.Error("reaped child reported alive")
	}
}
