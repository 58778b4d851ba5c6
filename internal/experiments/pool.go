package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	libra "repro"
)

// DefaultJobs returns the fan-out width used when no explicit -jobs value is
// given: the LIBRA_JOBS environment variable when it holds a positive
// integer, otherwise runtime.NumCPU().
func DefaultJobs() int { return envPositive("LIBRA_JOBS", runtime.NumCPU()) }

// SimWorkers is the render-farm width (libra.Config.SimWorkers) of each
// simulation when a process runs concurrent simulations at once: the CPUs
// they leave idle, max(1, GOMAXPROCS/concurrent), at most
// libra.MaxSimWorkers. A pool as wide as the CPU count (the -jobs default)
// runs every simulation serially; a lone simulation gets every CPU. Results
// are byte-identical at any width.
func SimWorkers(concurrent int) int {
	n := runtime.GOMAXPROCS(0) / max(concurrent, 1)
	return min(max(n, 1), libra.MaxSimWorkers)
}

// Pool fans indexed jobs out to a bounded set of workers. Workers pull the
// next index from a shared atomic counter, so load balances dynamically even
// when per-job runtimes are heavily skewed (per-game simulation times vary by
// an order of magnitude across the suite). Determinism is the caller's job:
// each fn(i) must write only into its own pre-indexed slot, never append in
// arrival order.
type Pool struct {
	jobs int
}

// NewPool builds a pool with the given width; jobs <= 0 selects DefaultJobs.
func NewPool(jobs int) *Pool {
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	return &Pool{jobs: jobs}
}

// Jobs returns the pool's worker bound.
func (p *Pool) Jobs() int {
	if p == nil || p.jobs <= 0 {
		return 1
	}
	return p.jobs
}

// ForEach runs fn(i) for every i in [0, n) on at most Jobs workers and
// returns once all have completed. With one worker it degenerates to a plain
// loop on the calling goroutine. If any fn panics, the first panic value is
// re-raised on the calling goroutine after the remaining workers drain.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.Jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any // first panic value, re-raised by the caller
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
