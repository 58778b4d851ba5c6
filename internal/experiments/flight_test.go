package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	libra "repro"
)

// TestFollowerErrorContract pins the singleflight failure semantics: the
// leader gets the underlying error verbatim; every follower gets an error
// matching ErrLeaderFailed that wraps the leader's; and the failed flight is
// dropped, so the key retries from scratch.
func TestFollowerErrorContract(t *testing.T) {
	r := NewRunner(storeParams())
	simErr := errors.New("device on fire")
	leaderIn := make(chan struct{}) // closed once the leader is inside simulate
	release := make(chan struct{})  // closed to let the leader fail
	calls := 0
	var callsMu sync.Mutex
	r.simulate = func(_ context.Context, cfg libra.Config, game string) (*GameRun, error) {
		callsMu.Lock()
		calls++
		first := calls == 1
		callsMu.Unlock()
		if first {
			close(leaderIn)
			<-release
			return nil, simErr
		}
		return &GameRun{Game: game}, nil
	}
	cfg := r.Baseline()

	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.TryRun(cfg, "Jet")
		leaderErr <- err
	}()
	<-leaderIn // flight registered: everyone from here on follows

	const followers = 3
	followerErrs := make(chan error, followers)
	var joined sync.WaitGroup
	for i := 0; i < followers; i++ {
		joined.Add(1)
		go func() {
			joined.Done()
			_, err := r.TryRun(cfg, "Jet")
			followerErrs <- err
		}()
	}
	joined.Wait()
	close(release)

	if err := <-leaderErr; !errors.Is(err, simErr) || errors.Is(err, ErrLeaderFailed) {
		t.Errorf("leader error = %v; want the underlying error, not ErrLeaderFailed", err)
	}
	for i := 0; i < followers; i++ {
		err := <-followerErrs
		if err == nil {
			// This follower arrived after the failed flight was dropped and
			// became the leader of a fresh, succeeding flight — allowed by
			// the contract (the drop happens before done is closed, so the
			// window exists only for goroutines that had not yet joined).
			continue
		}
		if !errors.Is(err, ErrLeaderFailed) {
			t.Errorf("follower error %v does not match ErrLeaderFailed", err)
		}
		if !errors.Is(err, simErr) {
			t.Errorf("follower error %v does not wrap the leader's error", err)
		}
	}

	// The failed flight is gone: the next call elects a fresh leader and
	// succeeds.
	run, err := r.TryRun(cfg, "Jet")
	if err != nil || run == nil {
		t.Fatalf("retry after failed leader: %v", err)
	}
}

// TestSimWorkersShareOneFlight: callers whose configurations differ only in
// SimWorkers ask for one result, so they share one flight, and the
// simulation runs at the width the rule gives the runner's pool, whatever
// the callers asked for.
func TestSimWorkersShareOneFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := NewRunner(storeParams())
	r.SetJobs(2)
	var widths []int
	r.SetSimulate(func(_ context.Context, cfg libra.Config, game string) (*GameRun, error) {
		widths = append(widths, cfg.SimWorkers)
		return &GameRun{Game: game}, nil
	})
	for _, n := range []int{0, 1, 7} {
		cfg := r.Baseline()
		cfg.SimWorkers = n
		if _, err := r.TryRun(cfg, "Jet"); err != nil {
			t.Fatal(err)
		}
	}
	if len(widths) != 1 || widths[0] != 2 {
		t.Errorf("simulations ran at widths %v, want one at width 2 (GOMAXPROCS 4 over 2 jobs)", widths)
	}
}

// TestPanicBecomesError: a panicking simulation surfaces as an error from
// TryRun (and a panic from Run), never a hang or a cached poisoned entry.
func TestPanicBecomesError(t *testing.T) {
	r := NewRunner(storeParams())
	first := true
	r.simulate = func(_ context.Context, cfg libra.Config, game string) (*GameRun, error) {
		if first {
			first = false
			panic("boom")
		}
		return &GameRun{Game: game}, nil
	}
	cfg := r.Baseline()
	_, err := r.TryRun(cfg, "Jet")
	if err == nil {
		t.Fatal("panicking simulation returned nil error")
	}
	if run, err := r.TryRun(cfg, "Jet"); err != nil || run == nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// TestRunPanicsOnFailure: Run is the infallible entry point used by the
// figure drivers; it must convert TryRun errors to panics.
func TestRunPanicsOnFailure(t *testing.T) {
	r := NewRunner(storeParams())
	r.simulate = func(_ context.Context, cfg libra.Config, game string) (*GameRun, error) {
		return nil, errors.New("nope")
	}
	defer func() {
		if recover() == nil {
			t.Error("Run did not panic on a failed simulation")
		}
	}()
	r.Run(r.Baseline(), "Jet")
}

// TestFailedLeaderPublishesNothing: a failed simulation must not leave an
// entry in the persistent store — on disk or in memory.
func TestFailedLeaderPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir)
	fail := true
	r.simulate = func(_ context.Context, cfg libra.Config, game string) (*GameRun, error) {
		if fail {
			return nil, fmt.Errorf("transient failure")
		}
		return &GameRun{Game: game, Frames: []libra.FrameResult{{Frame: 0}}}, nil
	}
	cfg := r.Baseline()
	if _, err := r.TryRun(cfg, "Jet"); err == nil {
		t.Fatal("expected the stubbed failure")
	}
	stats, err := r.Store().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 0 {
		t.Fatalf("failed run left %d store entries", stats.Entries)
	}
	if stats.Locks != 0 {
		t.Fatalf("failed run left %d writer locks", stats.Locks)
	}
	// Recovery publishes normally.
	fail = false
	if _, err := r.TryRun(cfg, "Jet"); err != nil {
		t.Fatal(err)
	}
	if stats, _ := r.Store().Stats(); stats.Entries != 1 {
		t.Fatalf("recovered run stored %d entries, want 1", stats.Entries)
	}
}
