package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/tiling"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The replay workload re-times one captured SuS frame of each of the run's
// simulations under each of replayPolicies: one op decodes the current
// simulation's trace and replays it for replayPasses passes under one
// policy, and a simulation's ops visit the policies in turn.
const replayPasses = 4

var replayPolicies = []core.Mode{core.ModeZOrder, core.ModeStaticSupertile, core.ModeTemperature, core.ModeLIBRA}

type replayBench struct {
	cfg     core.Config
	profile workloads.Profile
	warmup  int

	// The current simulation's warm-up and captured frames, its encoded
	// trace, and each policy's first replay of it.
	frames []core.FrameResult
	trace  []byte
	first  [][]core.ReplayResult
	enc    bytes.Buffer
	st     *stages // traced runs' own engine
}

func newReplayBench(o options) (bench, error) {
	p, err := profile("SuS", o.seed, o.seedSet)
	if err != nil {
		return nil, err
	}
	cfg := simConfig(core.ModeLIBRA, false)
	b := &replayBench{
		cfg:     cfg,
		profile: p,
		warmup:  experiments.DefaultParams().Warmup,
		first:   make([][]core.ReplayResult, len(replayPolicies)),
	}
	if o.trace {
		b.st = newStages(cfg, true)
	}
	return b, nil
}

func (b *replayBench) round() int       { return runGames * len(replayPolicies) }
func (b *replayBench) framesPerOp() int { return replayPasses }

// setUp renders simulation g's warm-up frames, then captures and encodes
// the trace of the frame that follows. The game and GPU are dropped; the
// ops need only the trace.
func (b *replayBench) setUp(g int) {
	p := b.profile
	p.Seed = gameSeed(b.profile, g)
	game := p.New()
	gpu := core.New(b.cfg)
	for f := 0; f < b.warmup; f++ {
		b.frames = append(b.frames, gpu.RenderFrame(game.FrameScene(f)))
	}
	res, ft := gpu.CaptureTrace(game.FrameScene(b.warmup))
	b.frames = append(b.frames, res)
	var buf bytes.Buffer
	if err := trace.Write(&buf, ft); err != nil {
		// Writing to a bytes.Buffer cannot fail; every op also checks the
		// trace against its own re-encoding.
		panic(err)
	}
	b.trace = buf.Bytes()
}

func (b *replayBench) drop() {
	b.frames, b.trace = nil, nil
	clear(b.first)
}

func (b *replayBench) checkSetUp() error {
	grid := tiling.NewGrid(b.cfg.ScreenW, b.cfg.ScreenH)
	for _, res := range b.frames {
		if err := checkFrame(b.cfg, grid, res); err != nil {
			return fmt.Errorf("set-up frame %d: %w", res.Frame, err)
		}
	}
	return nil
}

func (b *replayBench) op(i int, tr *tracer, lc *layerCounts) (opSample, error) {
	p := i % len(replayPolicies)
	cfg := b.cfg
	cfg.Mode = replayPolicies[p]

	// The op's root span also covers its check; the op's own time is the
	// meter's.
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	var m meter
	m.start()
	sp := tr.begin("trace.decode", i, root)
	ft, err := trace.Read(bytes.NewReader(b.trace))
	tr.end(sp)
	var rs []core.ReplayResult
	if err == nil {
		sp = tr.begin("core.replay", i, root)
		rs, err = core.ReplayTrace(cfg, ft, replayPasses)
		tr.end(sp)
	}
	s := m.stop()
	if err != nil {
		return s, fmt.Errorf("under %v: %w", cfg.Mode, err)
	}
	for _, r := range rs {
		s.cycles += float64(r.RasterCycles) / float64(len(rs))
		s.dram += float64(r.DRAMAccesses) / float64(len(rs))
	}
	if lc != nil {
		lc.gcs += s.gcs
		lc.traceBytes += len(b.trace)
		for _, r := range rs {
			lc.addPass(r)
		}
	}

	sp = tr.begin("trace.encode", i, root)
	b.enc.Reset()
	err = trace.Write(&b.enc, ft)
	tr.end(sp)
	if err := checkReplay(b.trace, b.enc.Bytes(), err, b.first[p], rs, replayPasses); err != nil {
		return s, fmt.Errorf("under %v: %w", cfg.Mode, err)
	}
	if b.first[p] == nil {
		b.first[p] = rs
	}
	if b.st != nil {
		// Times the engine alone over the decoded work, in Z-order; the
		// counts are the replay's own (lc.addPass).
		b.st.replay(ft.Tiles, nil, sched.NewZOrderQueue(b.st.grid), tr, i, root)
	}
	return s, nil
}
