package experiments

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	libra "repro"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// CLI is the command-line path librasim, suite, sweep and libraserve share.
// The host flags (-jobs, -render-elim, -result-dir) with their LIBRA_*
// fallbacks, the frame-window rules, the runner and result-store set-up,
// the single-run path, the fan-out loop and the Ctrl-C exit are each
// written here once; a front-end declares only the flags that are its own.
type CLI struct {
	Name string // command name: the prefix of its stderr lines
	P    Params // the experiment scale; -render-elim binds here
	// Jobs bounds concurrent simulations (-jobs, <= 0 = DefaultJobs).
	Jobs int
	// ResultDir, when non-empty, is the persistent result store (-result-dir).
	ResultDir string
	// Quiet suppresses RunAll's stderr progress line.
	Quiet bool

	ctx    context.Context // cancelled by Ctrl-C or SIGTERM (see NewCLI)
	runner *Runner
}

// NewCLI starts a batch front-end named name at scale p. Ctrl-C or SIGTERM
// cancels the context it derives from ctx, and with it every simulation of
// the front-end's runner at its next frame boundary. The signal handler
// lives as long as the process: a front-end exits when its run ends.
func NewCLI(ctx context.Context, name string, p Params) *CLI {
	c := &CLI{Name: name, P: p}
	c.ctx, _ = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	return c
}

// Context returns the signal context of a CLI built by NewCLI (nil for a
// bare CLI, which handles no signals).
func (c *CLI) Context() context.Context { return c.ctx }

// RegisterFlags declares the host flags the batch front-ends share on fs:
// -jobs, -render-elim and -result-dir. Each defaults to its LIBRA_*
// environment variable when that holds a valid value.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Jobs, "jobs", DefaultJobs(),
		"concurrent simulations (<=0 = NumCPU, or $LIBRA_JOBS)")
	v, err := strconv.ParseBool(os.Getenv("LIBRA_RENDER_ELIM"))
	fs.BoolVar(&c.P.RenderElim, "render-elim", err == nil && v,
		"enable Rendering Elimination: skip tiles whose input signature matches the previous frame (or $LIBRA_RENDER_ELIM); pixels are unchanged, coherent frames get faster")
	c.RegisterServiceFlags(fs)
}

// RegisterServiceFlags declares the one host flag libraserve takes:
// -result-dir.
func (c *CLI) RegisterServiceFlags(fs *flag.FlagSet) {
	ResultDirVar(fs, &c.ResultDir, "result-dir",
		"persistent result store directory (or $LIBRA_RESULT_DIR; empty = store disabled)")
}

// ResultDirVar declares a result-store directory flag named name on fs,
// defaulting to $LIBRA_RESULT_DIR (empty = store disabled). The front-ends
// call it -result-dir; cmd/resultstore calls it -dir.
func ResultDirVar(fs *flag.FlagSet, p *string, name, help string) {
	fs.StringVar(p, name, os.Getenv("LIBRA_RESULT_DIR"), help)
}

// PolicyHelp lists, for a -policy flag's help text, every scheduling policy
// libra.Config.Validate accepts.
func PolicyHelp() string {
	var names []string
	for _, p := range libra.Policies() {
		names = append(names, string(p))
	}
	return strings.Join(names, " | ")
}

// envPositive returns the positive integer held by environment variable
// key, or def when it is unset or holds anything else.
func envPositive(key string, def int) int {
	if n, err := strconv.Atoi(os.Getenv(key)); err == nil && n > 0 {
		return n
	}
	return def
}

// DefaultWarmup is the warm-up a frame window gets when none is given: two
// frames, or none when the window is too short to discard any (≤ 2 frames).
func DefaultWarmup(frames int) int {
	if frames <= 2 {
		return 0
	}
	return 2
}

// Parse parses args into fs and validates the scale. A front-end with a
// -frames flag gets DefaultWarmup for that window unless it also has a
// -warmup flag and it was given.
func (c *CLI) Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	warmupGiven := false
	fs.Visit(func(f *flag.Flag) { warmupGiven = warmupGiven || f.Name == "warmup" })
	if fs.Lookup("frames") != nil && !warmupGiven {
		c.P.Warmup = DefaultWarmup(c.P.Frames)
	}
	return c.P.Validate()
}

// ParseCommandLine is Parse over the process's own flags and arguments. An
// invalid value exits 2 with a one-line error, before anything simulates.
func (c *CLI) ParseCommandLine() {
	c.Refuse(c.Parse(flag.CommandLine, os.Args[1:]))
}

// Refuse ends the run before anything simulates when err reports a value, a
// name or a configuration no simulation can run with: one line prefixed with
// the front-end's name on stderr, exit 2. A nil err does nothing. Front-ends
// pass it the Validate of every libra.Config they build from their flags,
// and their unknown names and formats, before Runner opens a result store.
func (c *CLI) Refuse(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		os.Exit(2)
	}
}

// NewRun builds the front-end's one simulation, of game under cfg, on the
// render farm SimWorkers gives a lone simulation. A configuration Validate
// refuses, or an unknown game, is refused (exit 2) before anything renders.
func (c *CLI) NewRun(cfg libra.Config, game string) *libra.Run {
	cfg.SimWorkers = SimWorkers(1)
	run, err := libra.NewRun(cfg, game)
	c.Refuse(err)
	return run
}

// Runner returns the front-end's runner, built on first use: the scale in
// P, Jobs simulations at a time, under the signal context, over the result
// store in ResultDir when one is set. A store that cannot be opened exits 1.
func (c *CLI) Runner() *Runner {
	if c.runner != nil {
		return c.runner
	}
	r := NewRunner(c.P)
	r.SetJobs(c.Jobs)
	r.SetContext(c.ctx)
	if c.ResultDir != "" {
		st, err := resultstore.Open(c.ResultDir)
		if err != nil {
			fatal(err)
		}
		r.SetStore(st)
	}
	c.runner = r
	return r
}

// Experiment runs the registry experiment id on the front-end's runner. An
// unknown id exits 1. The drivers fail by panicking (Runner.Run): a panic
// that Ctrl-C caused exits 130, any other keeps panicking.
func (c *CLI) Experiment(id string) *Result {
	fn, ok := c.Runner().Registry()[id]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", id))
	}
	defer func() {
		if p := recover(); p != nil {
			c.exitIfInterrupted(nil)
			panic(p)
		}
	}()
	return fn()
}

// Job is one simulation of a fan-out: a benchmark under a configuration.
type Job struct {
	Cfg  libra.Config
	Game string
}

// RunAll simulates every job on the front-end's runner and returns their
// summaries in job order, however the pool schedules them. Unless Quiet, a
// progress line counting the completed jobs goes to stderr. Ctrl-C exits
// 130; otherwise the first failed job, in job order, exits 1.
func (c *CLI) RunAll(jobs []Job) []libra.Summary {
	r := c.Runner()
	sums := make([]libra.Summary, len(jobs))
	errs := make([]error, len(jobs))
	var progress *Progress
	if !c.Quiet {
		progress = NewProgress(os.Stderr, c.Name, len(jobs))
	}
	r.pool.ForEach(len(jobs), func(i int) {
		run, err := r.TryRun(jobs[i].Cfg, jobs[i].Game)
		if err != nil {
			errs[i] = err
			return
		}
		sums[i] = run.Summary
		progress.Done()
	})
	c.exitIfInterrupted(progress)
	progress.Finish()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	return sums
}

// exitIfInterrupted exits with the conventional Ctrl-C status 130 once the
// signal context is cancelled, first closing progress (when non-nil) with
// the jobs actually completed.
func (c *CLI) exitIfInterrupted(progress *Progress) {
	if c.ctx == nil || c.ctx.Err() == nil {
		return
	}
	progress.Abort()
	msg := c.Name + ": interrupted"
	if c.ResultDir != "" {
		msg += "; completed simulations are in the result store"
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(130)
}

// ReportStore writes the result store's counters to stderr as one line,
// `store: hits=… misses=… corrupt=… sims=…`, which scripts grep to prove a
// warm run simulated nothing. Without a store it writes nothing.
func (c *CLI) ReportStore() {
	if c.runner == nil || c.runner.store == nil {
		return
	}
	m := c.runner.store.Metrics()
	fmt.Fprintf(os.Stderr, "store: hits=%d misses=%d corrupt=%d sims=%d\n",
		m.Counter(resultstore.MetricHit).Value(),
		m.Counter(resultstore.MetricMiss).Value(),
		m.Counter(resultstore.MetricCorrupt).Value(),
		c.runner.Sims())
}

// WriteTelemetry writes tr's Chrome trace and metrics registry to the given
// paths, skipping empty ones, and names each written file on stderr. A
// write error exits 1.
func WriteTelemetry(tr *telemetry.Trace, traceOut, metricsOut string) {
	write := func(path string, export func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = export(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	write(traceOut, tr.ExportChromeTrace)
	write(metricsOut, tr.ExportMetrics)
}

// fatal ends a front-end on a runtime failure: the error on stderr, exit 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
