// Package experiments reproduces every table and figure of the paper's
// evaluation (§I, §III motivation and §V results) on top of the public API.
// Each Fig/Table function runs the required simulations and returns both the
// raw series and a formatted, paper-style text table. cmd/librasim and the
// root bench harness are thin wrappers around this package.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	libra "repro"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// Params controls the scale of every experiment. The paper runs FHD
// (1920×1080) over 25-frame sequences; the default here is a scaled screen
// that preserves the tile-count regime (hundreds of tiles) at tractable
// simulation cost. Results are resolution-stable in shape.
type Params struct {
	ScreenW, ScreenH int
	Frames           int // frames per measurement
	Warmup           int // leading frames excluded from summaries
	// L2KB scales the shared L2 with the screen so the cache-to-working-set
	// ratio of the FHD evaluation is preserved (0 = Table I's 2 MB).
	L2KB int
	// RenderElim enables Rendering Elimination on every simulation the
	// experiments run (libra.Config.RenderElim). Unlike the render-farm
	// width it IS part of a result's identity: skipped tiles change cycle
	// and energy accounting (never pixels), so it participates in store
	// keys.
	RenderElim bool
}

// DefaultParams returns the standard experiment scale: 1/8.4 of the FHD
// pixel count with the L2 scaled by the same factor.
func DefaultParams() Params {
	return Params{ScreenW: 640, ScreenH: 384, Frames: 12, Warmup: 4, L2KB: 1024}
}

// PaperParams returns the paper's full scale (slow: FHD, 25 frames, 2MB L2).
func PaperParams() Params {
	return Params{ScreenW: 1920, ScreenH: 1080, Frames: 25, Warmup: 3}
}

// Validate reports the first value no simulation can run with: a frame
// window of fewer than one frame, a warm-up outside [0, frames), or an L2
// size libra.ValidateL2KB refuses.
func (p Params) Validate() error {
	switch {
	case p.Frames < 1:
		return fmt.Errorf("frames %d < 1", p.Frames)
	case p.Warmup < 0 || p.Warmup >= p.Frames:
		return fmt.Errorf("warmup %d outside [0, frames)", p.Warmup)
	}
	return libra.ValidateL2KB(p.L2KB)
}

// Apply returns cfg with the settings p gives every simulation it runs: the
// L2 size and Rendering Elimination.
func (p Params) Apply(cfg libra.Config) libra.Config {
	cfg.L2KB = p.L2KB
	cfg.RenderElim = p.RenderElim
	return cfg
}

// TotalCores is the shader-core budget of the headline comparison: the
// baseline has one 8-core Raster Unit, LIBRA two 4-core Raster Units.
const TotalCores = 8

// GameRun holds one benchmark's frames under one configuration.
type GameRun struct {
	Game    string
	Frames  []libra.FrameResult
	Summary libra.Summary
}

// Runner executes and memoizes simulations so that experiments sharing the
// same configuration (Figs. 11-15 all need baseline/PTR/LIBRA runs) pay for
// them once. Memoization is a singleflight: when several pool workers ask for
// the same (config, game) key concurrently, exactly one simulates while the
// rest block on its result.
type Runner struct {
	P    Params
	pool *Pool

	mu    sync.Mutex
	cache map[string]*flight

	sims atomic.Int64 // simulations actually executed (cache misses)

	// store, when non-nil, is the persistent result layer under the
	// in-memory cache; fingerprint is the code identity mixed into every
	// store key (see SetStore).
	store       *resultstore.Store
	fingerprint string

	// telemetry, when non-nil, is consulted for every executed simulation;
	// a non-nil Recorder it returns is attached to the run before frames
	// render, so any registered experiment can be traced.
	telemetry func(cfg libra.Config, game string) telemetry.Recorder

	// baseCtx, when non-nil, is the context the context-free entry points
	// (Run/TryRun, and through them every figure driver) run under — see
	// SetContext.
	baseCtx context.Context

	// simulate substitutes the real simulation in tests of the flight
	// protocol and service harnesses (nil = libra.NewRun +
	// RenderFramesContext) — see SetSimulate.
	simulate func(ctx context.Context, cfg libra.Config, game string) (*GameRun, error)
}

// flight is one cache slot: the leader closes done once run or err is set;
// followers block on done instead of re-simulating the key.
type flight struct {
	done chan struct{}
	run  *GameRun
	err  error
}

// ErrLeaderFailed marks the error a follower receives when the leader it
// raced onto failed (simulation error, panic, or the leader's own context
// being cancelled). The failed flight is dropped from the cache before
// followers are released, so a later call on the same key elects a fresh
// leader and retries — followers that want the retry themselves can match
// this sentinel with errors.Is and call again.
//
// Cancellation extension: a leader abort must never poison its followers.
// When the wrapped cause is a context error (the *leader* was cancelled, the
// simulation itself did not fail), TryRunContext retries on the caller's
// behalf as long as the caller's own context is live — so a follower only
// ever observes ErrLeaderFailed for genuine simulation failures, and a
// caller is never failed by a cancellation that was not its own.
var ErrLeaderFailed = errors.New("experiments: leader simulation failed")

// NewRunner builds a runner at the given scale with the default fan-out
// width (see DefaultJobs).
func NewRunner(p Params) *Runner {
	return &Runner{P: p, pool: NewPool(0), cache: map[string]*flight{}}
}

// SetJobs bounds the concurrent simulations of the figure and ablation
// drivers; n <= 0 restores DefaultJobs. Each simulation the runner executes
// runs on the render farm SimWorkers gives that width. Results are
// independent of n: every driver collects into pre-indexed slots and the
// simulator itself is deterministic per (config, game).
func (r *Runner) SetJobs(n int) { r.pool = NewPool(n) }

// Sims returns how many simulations the runner actually executed — followers
// and repeat lookups recall the cached result and do not count.
func (r *Runner) Sims() int64 { return r.sims.Load() }

// SetTelemetry installs a factory consulted for every simulation the runner
// executes (cache hits are not re-simulated and see no callback). Returning a
// non-nil Recorder attaches it to that run; the factory may be called from
// several pool workers concurrently, and may hand every run one shared
// Recorder (telemetry.Trace is safe for concurrent use). Pass nil to detach.
func (r *Runner) SetTelemetry(f func(cfg libra.Config, game string) telemetry.Recorder) {
	r.telemetry = f
}

// SetContext installs the context the context-free entry points (Run and
// TryRun, and through them every figure/table driver) run under — the
// graceful-abort hook for whole-sweep cancellation: cancel it and every
// in-flight simulation stops at its next frame boundary. Pass nil to restore
// context.Background(). Callers holding a per-request context use
// TryRunContext directly instead.
func (r *Runner) SetContext(ctx context.Context) { r.baseCtx = ctx }

// SetSimulate substitutes the simulation a leader executes — the seam the
// flight-protocol tests and the service test harnesses use to control
// timing, inject failures, or honor cancellation without rendering real
// frames. The stub must respect ctx if it blocks. Pass nil to restore the
// real simulator. Stubs run under the same contract as real simulations:
// successes are cached and published, failures never are.
func (r *Runner) SetSimulate(f func(ctx context.Context, cfg libra.Config, game string) (*GameRun, error)) {
	r.simulate = f
}

// Run simulates (or recalls) the given benchmark under cfg. Concurrent calls
// with the same key execute the simulation exactly once. Run panics on
// failure (unknown game, invalid config, base-context cancellation) — the
// figure and table drivers only run vetted suite configurations; fallible
// callers use TryRun or TryRunContext.
func (r *Runner) Run(cfg libra.Config, game string) *GameRun {
	run, err := r.TryRun(cfg, game)
	if err != nil {
		panic(err.Error())
	}
	return run
}

// TryRun is TryRunContext under the runner's base context (see SetContext;
// default context.Background()).
func (r *Runner) TryRun(cfg libra.Config, game string) (*GameRun, error) {
	ctx := r.baseCtx
	if ctx == nil {
		ctx = context.Background()
	}
	return r.TryRunContext(ctx, cfg, game)
}

// TryRunContext simulates (or recalls) the given benchmark under cfg.
// Concurrent calls with the same key execute the simulation exactly once:
// one caller leads, the rest follow and share its result. The caller's
// cfg.SimWorkers is ignored: the key, the store and the telemetry factory
// see it as 0, and the simulation runs on the farm SimWorkers gives the
// runner's pool width.
//
// Error contract: the leader receives the underlying error; every follower
// of a failed leader receives an error matching ErrLeaderFailed (wrapping
// the leader's). Failed flights are never cached — in memory or on disk —
// so the next call on the key retries from scratch.
//
// Cancellation contract: ctx is checked at every frame boundary, so a
// cancelled call returns within one frame of work; partial results are
// discarded, never cached, and never published to the store. A follower
// whose own ctx is cancelled unblocks immediately with ctx.Err() (it does
// not wait for the leader). A follower whose *leader* was cancelled is
// retried transparently while its own ctx is live — one waiter's abort
// never fails another (see ErrLeaderFailed).
func (r *Runner) TryRunContext(ctx context.Context, cfg libra.Config, game string) (*GameRun, error) {
	cfg.SimWorkers = 0
	for {
		run, err := r.runFlight(ctx, cfg, game)
		if err != nil && ctx.Err() == nil &&
			errors.Is(err, ErrLeaderFailed) && isContextError(err) {
			// The leader aborted on its own context, not on a simulation
			// failure; the failed flight is already dropped, so retrying
			// elects a fresh leader (possibly this caller).
			continue
		}
		return run, err
	}
}

// isContextError reports whether err wraps a context cancellation cause.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runFlight runs one iteration of the singleflight protocol: join an
// existing flight as a follower, or lead a new one.
func (r *Runner) runFlight(ctx context.Context, cfg libra.Config, game string) (*GameRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%+v", game, cfg)
	r.mu.Lock()
	if f, ok := r.cache[key]; ok {
		r.mu.Unlock()
		// Follower: wait for the leader's result — or this caller's own
		// cancellation, whichever comes first. Leaving early is safe: the
		// flight (and its leader) belongs to the runner, not this waiter.
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, fmt.Errorf("%w: %w", ErrLeaderFailed, f.err)
		}
		return f.run, nil
	}
	f := &flight{done: make(chan struct{})}
	r.cache[key] = f
	r.mu.Unlock()

	// Leader: simulate (consulting the persistent store first, if one is
	// attached), publish, release the followers. Failures — including
	// panics, which lead converts to errors, and cancellations — drop the
	// slot before done is closed, so no later call can join or cache a
	// failed flight.
	f.run, f.err = r.lead(ctx, cfg, game)
	if f.err != nil {
		r.mu.Lock()
		delete(r.cache, key)
		r.mu.Unlock()
	}
	close(f.done)
	return f.run, f.err
}

// lead executes a flight's simulation, layering the persistent store (when
// attached) under the in-memory cache. A panic in the simulator is converted
// to an error so the flight protocol has a single failure path. An error
// return — including a frame-boundary cancellation — publishes nothing: the
// store only ever sees complete, successful frame sequences.
func (r *Runner) lead(ctx context.Context, cfg libra.Config, game string) (gr *GameRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			gr, err = nil, fmt.Errorf("experiments: simulation panicked: %v", p)
		}
	}()
	var storeKey string
	if r.store != nil {
		if spec, kerr := r.KeySpec(cfg, game); kerr == nil {
			storeKey = spec.Key()
			if gr := r.storeGet(storeKey, game); gr != nil {
				return gr, nil
			}
			// Writer lock: exactly one process simulates this key. When the
			// lock is granted after a wait, the previous holder usually
			// published the result — re-check before simulating. A lock
			// failure degrades to an unshared simulation.
			if release, lerr := r.store.Lock(storeKey); lerr == nil {
				defer release()
				if gr := r.storeGet(storeKey, game); gr != nil {
					return gr, nil
				}
			} else {
				storeKey = "" // no lock → simulate, but don't publish
			}
		}
	}
	gr, err = r.execute(ctx, cfg, game)
	if err != nil {
		return nil, err
	}
	if r.store != nil && storeKey != "" {
		// Publish for future processes. A write failure only costs future
		// warm hits; it must never fail the run (counted by the store).
		label := fmt.Sprintf("%s %s %dx%d frames=%d", game, cfg.Policy,
			cfg.ScreenW, cfg.ScreenH, r.P.Frames)
		_ = r.store.Put(storeKey, label, gr.Frames)
	}
	return gr, nil
}

// execute performs the actual simulation (or the test stub) on the render
// farm SimWorkers gives the runner's pool width, honoring ctx at frame
// boundaries: a cancelled simulation returns ctx's error within one frame of
// work and its partial frames are discarded.
func (r *Runner) execute(ctx context.Context, cfg libra.Config, game string) (*GameRun, error) {
	farm := cfg
	farm.SimWorkers = SimWorkers(r.pool.Jobs())
	if r.simulate != nil {
		return r.simulate(ctx, farm, game)
	}
	run, err := libra.NewRun(farm, game)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if r.telemetry != nil {
		if rec := r.telemetry(cfg, game); rec != nil {
			run.SetRecorder(rec)
		}
	}
	frames, err := run.RenderFramesContext(ctx, r.P.Frames)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	r.sims.Add(1)
	return &GameRun{Game: game, Frames: frames, Summary: libra.Summarize(frames, r.P.Warmup)}, nil
}

// perGame computes one Row per game on the runner's pool. Each worker writes
// only its own game-indexed slot, so row order always matches the suite
// order no matter how the scheduler interleaves jobs.
func (r *Runner) perGame(games []string, fn func(g string) Row) []Row {
	rows := make([]Row, len(games))
	r.pool.ForEach(len(games), func(i int) { rows[i] = fn(games[i]) })
	return rows
}

// column extracts the k-th value of every row — the aggregation input for
// headline averages computed after a parallel perGame pass.
func column(rows []Row, k int) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = row.Values[k]
	}
	return out
}

// Standard configurations of the evaluation.

// Baseline is the conventional GPU: 1 RU × TotalCores.
func (r *Runner) Baseline() libra.Config {
	return r.P.Apply(libra.Baseline(r.P.ScreenW, r.P.ScreenH, TotalCores))
}

// BaselineCores is a single-RU baseline with the given core count.
func (r *Runner) BaselineCores(n int) libra.Config {
	return r.P.Apply(libra.Baseline(r.P.ScreenW, r.P.ScreenH, n))
}

// PTR is parallel tile rendering with n 4-core RUs, Z-order interleaved.
func (r *Runner) PTR(n int) libra.Config {
	return r.P.Apply(libra.PTR(r.P.ScreenW, r.P.ScreenH, n))
}

// LIBRA is the full proposal with n 4-core RUs.
func (r *Runner) LIBRA(n int) libra.Config {
	return r.P.Apply(libra.LIBRA(r.P.ScreenW, r.P.ScreenH, n))
}

// suite name lists.
func memGames() []string {
	var out []string
	for _, b := range libra.MemoryIntensiveBenchmarks() {
		out = append(out, b.Abbrev)
	}
	return out
}

func compGames() []string {
	var out []string
	for _, b := range libra.ComputeIntensiveBenchmarks() {
		out = append(out, b.Abbrev)
	}
	return out
}

func allGames() []string {
	var out []string
	for _, b := range libra.Benchmarks() {
		out = append(out, b.Abbrev)
	}
	return out
}

// Row is one printable series entry.
type Row struct {
	Label  string
	Values []float64
}

// Result is a complete experiment output.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	// Headline holds the experiment's key aggregate metrics by name (the
	// numbers quoted in the paper's abstract/intro).
	Headline map[string]float64
	// Art holds any ASCII renderings (heatmaps).
	Art string
}

// Table renders the result as an aligned text table.
func (res *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", res.ID, res.Title)
	if len(res.Rows) > 0 {
		fmt.Fprintf(&b, "%-10s", "bench")
		for _, c := range res.Columns {
			fmt.Fprintf(&b, "%14s", c)
		}
		b.WriteByte('\n')
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "%-10s", row.Label)
			for _, v := range row.Values {
				fmt.Fprintf(&b, "%14.4f", v)
			}
			b.WriteByte('\n')
		}
	}
	if len(res.Headline) > 0 {
		for _, k := range sortedKeys(res.Headline) {
			fmt.Fprintf(&b, "-- %s: %.4f\n", k, res.Headline[k])
		}
	}
	if res.Art != "" {
		b.WriteString(res.Art)
	}
	return b.String()
}

// ratio returns num/den, or 0 when the denominator is zero. Degenerate
// zero-work runs (empty scenes, zero-cycle frame windows) must still yield
// finite metrics: a NaN here would poison every mean() aggregate and make
// Result.JSON fail, since encoding/json rejects NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// GainPct is the speedup of over against base in percent. A zero-cycle run
// (an empty frame window) reports 0 rather than NaN or Inf, so tables and
// their averages stay finite.
func GainPct(base, over int64) float64 {
	if over == 0 {
		return 0
	}
	return (float64(base)/float64(over) - 1) * 100
}

// mean of a slice (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
