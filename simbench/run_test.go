package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	libra "repro"
	"repro/internal/core"
)

// parseResult parses the result line a run prints last.
func parseResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// Every workload, traced and untraced, prints every metric BENCHMARK.json
// lists for that mode exactly once with its unit and no other, reports its
// attempted and failed ops, and passes its checks.
func TestPrintsExactlyTheBenchmarkMetrics(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		for trace := 0; trace < 2; trace++ {
			o := options{workload: w.Name, seed: 5, seedSet: true, seconds: 1, trace: trace == 1,
				spans: filepath.Join(t.TempDir(), "spans.json"), ops: 1}
			var out, errb bytes.Buffer
			if code := runAndPrint(o, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w.Name, trace, code, errb.String())
			}
			res := parseResult(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s [%s] not in BENCHMARK.json (want unit %q)", w.Name, trace, name, m.Unit, unit)
				}
			}
			if trace == 1 {
				checkSpans(t, w.Name, o.spans, res)
			}
		}
	}
}

// checkSpans checks a traced run's span file: every span lies within its
// parent, an op's root, and on the frame workloads the stage spans, timed
// apart from RenderFrame, account for most of its time: core.other_ms, the
// rest, stays a small share of core.frame_ms.
func checkSpans(t *testing.T, workload, path string, res result) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans written", workload)
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %+v ends before it starts", workload, s)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if p.Op != s.Op || p.Name != "op" || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("%s: span %+v does not lie within its parent %+v", workload, s, p)
		}
	}
	if !strings.HasPrefix(workload, "frame-") {
		return
	}
	frame, other := res.Metrics["core.frame_ms"].Value, res.Metrics["core.other_ms"].Value
	t.Logf("%s: core.other_ms is %.1f%% of core.frame_ms", workload, 100*other/frame)
	if frame <= 0 || other < -0.1*frame || other > 0.15*frame {
		t.Errorf("%s: core.other_ms = %v of core.frame_ms = %v; the stage spans do not account for the frame", workload, other, frame)
	}
}

// faultyBench fails every third op, as a broken program would.
type faultyBench struct{}

func (faultyBench) setUp(int)         {}
func (faultyBench) checkSetUp() error { return nil }
func (faultyBench) round() int        { return runGames * 3 }
func (faultyBench) framesPerOp() int  { return 1 }
func (faultyBench) drop()             {}
func (faultyBench) op(i int, _ *tracer, _ *layerCounts) (opSample, error) {
	if i%3 == 2 {
		return opSample{}, errors.New("planted fault")
	}
	return opSample{dur: 1e6}, nil
}

// A failed check fails its op: the run reports it in failed, against the
// ops attempted, and exits nonzero.
func TestRunCountsFailedOps(t *testing.T) {
	specs["faulty"] = spec{opsPerSec: 1, newBench: func(options) (bench, error) { return faultyBench{}, nil }}
	defer delete(specs, "faulty")
	var out, errb bytes.Buffer
	code := runAndPrint(options{workload: "faulty", seconds: 1, ops: 1}, &out, &errb)
	if code == 0 {
		t.Fatal("a run with failed ops exited 0")
	}
	res := parseResult(t, out.String())
	// One op rounds up to the minimum of two whole rounds.
	if want := 2 * (faultyBench{}).round(); res.Attempted != want || res.Failed != want/3 || !res.Correct {
		t.Fatalf("attempted=%d failed=%d correct=%v, want %d (two whole rounds), %d, true", res.Attempted, res.Failed, res.Correct, want, want/3)
	}
}

// The benchmark's GPU is the one librasim builds by default: the same
// frames come out of both.
func TestSimConfigIsLibrasimDefault(t *testing.T) {
	cfg := libra.DefaultConfig(640, 384)
	cfg.RasterUnits, cfg.CoresPerRU, cfg.Policy, cfg.L2KB = 2, 4, libra.PolicyLIBRA, 1024
	run, err := libra.NewRun(cfg, "SuS")
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile("SuS", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	game, gpu := p.New(), core.New(simConfig(core.ModeLIBRA, false))
	for f := 0; f < 2; f++ {
		want := run.RenderFrame()
		got := gpu.RenderFrame(game.FrameScene(f))
		if got.FrameHash != want.FrameHash || got.TotalCycles != want.TotalCycles || got.DRAMStats.Accesses() != want.DRAMAccesses {
			t.Fatalf("frame %d: benchmark hash %#x cycles %d dram %d, librasim %#x %d %d", f,
				got.FrameHash, got.TotalCycles, got.DRAMStats.Accesses(), want.FrameHash, want.TotalCycles, want.DRAMAccesses)
		}
	}
}

func TestSeedReplacesLayoutSeed(t *testing.T) {
	own, err := parseOptions([]string{"--workload", "frame-sus"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := parseOptions([]string{"--workload", "frame-sus", "--seed", "0"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	pOwn, _ := profile("SuS", own.seed, own.seedSet)
	pSet, _ := profile("SuS", set.seed, set.seedSet)
	if pOwn.Seed != 113 || pSet.Seed != 0 {
		t.Fatalf("seeds: default %d (want SuS's own 113), --seed 0 gives %d", pOwn.Seed, pSet.Seed)
	}
}
