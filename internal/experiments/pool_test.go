package experiments

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDefaultJobsEnvOverride(t *testing.T) {
	t.Setenv("LIBRA_JOBS", "3")
	if got := DefaultJobs(); got != 3 {
		t.Errorf("LIBRA_JOBS=3 → DefaultJobs()=%d", got)
	}
	t.Setenv("LIBRA_JOBS", "garbage")
	if got := DefaultJobs(); got < 1 {
		t.Errorf("invalid LIBRA_JOBS must fall back to NumCPU, got %d", got)
	}
	t.Setenv("LIBRA_JOBS", "-2")
	if got := DefaultJobs(); got < 1 {
		t.Errorf("negative LIBRA_JOBS must fall back to NumCPU, got %d", got)
	}
}

// TestSimWorkersRule pins the render-farm width rule at fixed GOMAXPROCS
// values: the CPUs that concurrent simulations leave idle, at least one.
func TestSimWorkersRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct{ procs, concurrent, want int }{
		{4, 1, 4}, {4, 2, 2}, {4, 3, 1}, {4, 4, 1}, {4, 16, 1},
		{4, 0, 4}, {4, -1, 4}, // no pool width: a lone simulation
		{2, 1, 2}, {2, 2, 1},
		{1, 1, 1}, {1, 4, 1},
	}
	for _, tc := range cases {
		runtime.GOMAXPROCS(tc.procs)
		if got := SimWorkers(tc.concurrent); got != tc.want {
			t.Errorf("GOMAXPROCS=%d: SimWorkers(%d) = %d, want %d", tc.procs, tc.concurrent, got, tc.want)
		}
	}
}

func TestPoolForEachCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, jobs := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]int32, n)
			NewPool(jobs).ForEach(n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("jobs=%d n=%d: index %d ran %d times", jobs, n, i, h)
				}
			}
		}
	}
}

func TestPoolForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("expected worker panic to re-raise on caller, got %v", r)
		}
	}()
	NewPool(4).ForEach(16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestProgressReportsCompletionAndETA(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	pr := NewProgress(w, "bench", 4)
	for i := 0; i < 4; i++ {
		pr.Done()
	}
	pr.Finish()
	out := sb.String()
	if !strings.Contains(out, "bench 4/4") {
		t.Errorf("progress output missing final count: %q", out)
	}
	if !strings.Contains(out, "done in") {
		t.Errorf("progress output missing elapsed time: %q", out)
	}
	// nil reporter must be a no-op
	var nilPr *Progress
	nilPr.Done()
	nilPr.Finish()
	if NewProgress(nil, "x", 10) != nil || NewProgress(w, "x", 0) != nil {
		t.Error("nil writer / zero total should disable reporting")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSingleflightExactlyOnce is the tentpole's correctness gate: many
// concurrent Run calls on the same (config, game) key must execute the
// simulation exactly once, with every caller receiving the leader's result.
func TestSingleflightExactlyOnce(t *testing.T) {
	r := NewRunner(tinyParams())
	cfg := r.Baseline()
	const callers = 16
	results := make([]*GameRun, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(cfg, "Jet")
		}(i)
	}
	wg.Wait()
	if got := r.Sims(); got != 1 {
		t.Errorf("16 concurrent Run calls on one key executed %d simulations, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *GameRun than caller 0", i)
		}
	}
}

// TestSingleflightStress hammers a small key set from parallel subtests so
// the race detector sees leader/follower interleavings across distinct keys.
func TestSingleflightStress(t *testing.T) {
	r := NewRunner(tinyParams())
	games := []string{"Jet", "CCS", "SuS"}
	cfgs := []string{"baseline", "ptr"}
	for _, g := range games {
		for _, c := range cfgs {
			t.Run(g+"/"+c, func(t *testing.T) {
				t.Parallel()
				cfg := r.Baseline()
				if c == "ptr" {
					cfg = r.PTR(2)
				}
				var wg sync.WaitGroup
				for i := 0; i < 8; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if run := r.Run(cfg, g); run == nil || len(run.Frames) == 0 {
							t.Error("empty result from singleflight")
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

func TestSingleflightPanicReleasesFollowers(t *testing.T) {
	r := NewRunner(tinyParams())
	cfg := r.Baseline()
	const callers = 4
	var wg sync.WaitGroup
	panics := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			r.Run(cfg, "no-such-game")
		}(i)
	}
	wg.Wait() // must not deadlock
	for i, p := range panics {
		if p == nil {
			t.Errorf("caller %d did not observe the leader's panic", i)
		}
	}
	if r.Sims() != 0 {
		t.Errorf("failed runs must not count as simulations: %d", r.Sims())
	}
}

// TestJobsDeterminism is the golden guarantee behind the -jobs flag: the
// aggregate summaries of a multi-game, multi-config suite are byte-identical
// whether simulations run serially or fanned out.
func TestJobsDeterminism(t *testing.T) {
	summaryTable := func(jobs int) string {
		r := NewRunner(tinyParams())
		r.SetJobs(jobs)
		games := []string{"Jet", "CCS", "SuS", "HCR", "Gra", "AAt"}
		rows := r.perGame(games, func(g string) Row {
			base := r.Run(r.Baseline(), g)
			lib := r.Run(r.LIBRA(2), g)
			return Row{Label: g, Values: []float64{
				float64(base.Summary.TotalCycles),
				float64(lib.Summary.TotalCycles),
				base.Summary.AvgTexHit,
				lib.Summary.EnergyUJ,
			}}
		})
		res := &Result{ID: "det", Title: "determinism", Columns: []string{"base", "libra", "hit", "uj"}, Rows: rows}
		return res.Table()
	}
	serial := summaryTable(1)
	parallel := summaryTable(4)
	if serial != parallel {
		t.Errorf("-jobs=1 and -jobs=4 summaries differ:\n--- jobs=1\n%s--- jobs=4\n%s", serial, parallel)
	}
}
