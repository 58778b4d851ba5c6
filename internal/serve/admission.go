// Package serve is the simulation-as-a-service layer: a pure-stdlib
// net/http server exposing the experiment registry (repro/internal/
// experiments) over JSON endpoints, with the service-grade parts the
// library layers deliberately do not carry — a bounded admission queue with
// 429 backpressure, per-request deadlines and cancellation plumbed down to
// the simulator's frame boundaries, graceful drain, and request-scoped
// telemetry counters. cmd/libraserve is a thin wrapper around this package;
// cmd/loadgen is its deterministic load-test client.
package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrQueueFull is returned by Admission.Acquire when admitting one more
// waiter would push the queue past its bound — the caller translates it to
// HTTP 429 with a Retry-After hint.
var ErrQueueFull = errors.New("serve: admission queue full")

// Admission is a two-stage concurrency limiter: at most maxInFlight callers
// run simulations at once, and at most maxQueue callers wait for a slot.
// Beyond that, Acquire rejects immediately — bounded memory, bounded queue
// delay, load shedding instead of collapse. All methods are safe for
// concurrent use.
//
// Invariants (property-tested): Waiting() never exceeds MaxQueue(),
// InFlight() never exceeds MaxInFlight(), and a rejected caller consumes no
// slot of either kind.
type Admission struct {
	slots    chan struct{} // buffered to maxInFlight; holding a token = running
	maxQueue int64
	waiting  atomic.Int64
	inflight atomic.Int64

	admitted atomic.Int64 // Acquire successes
	rejected atomic.Int64 // ErrQueueFull rejections
	aborted  atomic.Int64 // context cancellations while queued
}

// NewAdmission builds a limiter admitting maxInFlight concurrent holders
// with up to maxQueue waiters. Non-positive values are clamped to 1 (a
// queue of at least one keeps the fast path — acquire with a free slot —
// always admissible).
func NewAdmission(maxInFlight, maxQueue int) *Admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 1 {
		maxQueue = 1
	}
	return &Admission{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueue),
	}
}

// Acquire admits the caller, blocking while the in-flight limit is reached.
// It returns a release function on success; ErrQueueFull when the waiting
// bound is already consumed; or ctx.Err() if the caller is cancelled while
// queued. The release function must be called exactly once (extra calls are
// no-ops). A free in-flight slot is taken without ever counting as queued,
// so an idle server admits instantly regardless of the queue bound.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		return a.admit(), nil
	default:
	}
	if !a.enqueue() {
		a.rejected.Add(1)
		return nil, ErrQueueFull
	}
	defer a.waiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return a.admit(), nil
	case <-ctx.Done():
		a.aborted.Add(1)
		return nil, ctx.Err()
	}
}

// enqueue reserves one waiter slot. The compare-and-swap never stores a
// count above maxQueue, so Waiting() stays within its bound even between a
// full queue's check and the caller's rejection.
func (a *Admission) enqueue() bool {
	for {
		n := a.waiting.Load()
		if n >= a.maxQueue {
			return false
		}
		if a.waiting.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// admit records a successful slot take and returns its idempotent release.
func (a *Admission) admit() func() {
	a.inflight.Add(1)
	a.admitted.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			a.inflight.Add(-1)
			<-a.slots
		}
	}
}

// Waiting returns the number of callers currently inside Acquire (queued or
// about to take a slot). It is bounded by MaxQueue.
func (a *Admission) Waiting() int64 { return a.waiting.Load() }

// InFlight returns the number of admitted callers that have not released.
func (a *Admission) InFlight() int64 { return a.inflight.Load() }

// MaxInFlight returns the concurrent-holder bound.
func (a *Admission) MaxInFlight() int { return cap(a.slots) }

// MaxQueue returns the waiter bound.
func (a *Admission) MaxQueue() int { return int(a.maxQueue) }

// Admitted returns the number of successful Acquires.
func (a *Admission) Admitted() int64 { return a.admitted.Load() }

// Rejected returns the number of ErrQueueFull rejections.
func (a *Admission) Rejected() int64 { return a.rejected.Load() }

// Aborted returns the number of callers cancelled while queued.
func (a *Admission) Aborted() int64 { return a.aborted.Load() }
