package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/workloads"
)

// Golden per-mode digests: an FNV-1a hash, for each scheduling mode on SuS
// and HCR at 320×192 with 2 Raster Units, of what frames 0–2 report about
// their scheduling (cycles, DRAM accesses, scheduler name, order mode,
// supertile size) and of every pass of a ReplayTrace of frame 3's captured
// workload. The frame-hash and tile-trace goldens pin pixels and the work
// each tile issues; these pin which Raster Unit renders which tile when, in
// every mode, including the order mode fed back to the adaptive controller
// between frames and between replay passes. Any change means a mode now
// schedules differently: review it as a model change and regenerate the
// map from the test's failure output.
var goldenModeDigests = map[string]uint64{
	"zorder/SuS":           0xdd0c10a8a310e03c,
	"zorder/HCR":           0xabc17289bdf3ed40,
	"static-supertile/SuS": 0x199f5eae28eceab5,
	"static-supertile/HCR": 0xfcc611986b81e242,
	"temperature/SuS":      0x5718d5571e8b6295,
	"temperature/HCR":      0x13a4ea0941b0cbaa,
	"libra/SuS":            0x252b6addf2e15d2f,
	"libra/HCR":            0x41853eb64f7943b4,
	"hilbert/SuS":          0xfbad5048c1363e35,
	"hilbert/HCR":          0x80dbaf4b52a9be94,
	"reverse/SuS":          0xdde9403599845d0e,
	"reverse/HCR":          0x569a533af31aef2e,
	"random/SuS":           0xb6ddd1ea0d3692b5,
	"random/HCR":           0xdcd0b591567c2b88,
	"alt-temperature/SuS":  0xf5ad6da91e1a0e50,
	"alt-temperature/HCR":  0x957a6a57d3652c02,
}

const (
	// modeDigestFrames frames are rendered, then the next one is captured.
	modeDigestFrames = 3
	// modeDigestPasses is the number of ReplayTrace passes hashed.
	modeDigestPasses = 4
)

func TestModeDigests(t *testing.T) {
	modes := []Mode{ModeZOrder, ModeStaticSupertile, ModeTemperature, ModeLIBRA,
		ModeHilbert, ModeReverse, ModeRandom, ModeAltTemperature}
	for _, m := range modes {
		for _, game := range []string{"SuS", "HCR"} {
			key := fmt.Sprintf("%v/%s", m, game)
			got := modeDigest(t, m, game)
			if want, ok := goldenModeDigests[key]; !ok || got != want {
				t.Errorf("%s: mode digest %#x, golden %#x — if the scheduling change"+
					" is intentional, regenerate the golden entry:\n\t%q: %#x,",
					key, got, want, key, got)
			}
		}
	}
}

// modeDigest renders modeDigestFrames frames of game under mode m, captures
// the next one and replays it for modeDigestPasses passes, hashing every
// scheduling-dependent figure along the way.
func modeDigest(t *testing.T, m Mode, game string) uint64 {
	t.Helper()
	p, err := workloads.ByAbbrev(game)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PTRConfig(testW, testH, 2)
	cfg.Mode = m
	g := p.New()
	gpu := New(cfg)
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	putString := func(s string) {
		put(uint64(len(s)))
		buf = append(buf, s...)
	}
	for f := 0; f < modeDigestFrames; f++ {
		res := gpu.RenderFrame(g.BuildFrame(f))
		put(uint64(res.GeometryCycles))
		put(uint64(res.RasterCycles))
		put(uint64(res.TotalCycles))
		put(uint64(res.DRAMAccesses))
		put(res.DRAMStats.Accesses())
		putString(res.SchedulerName)
		put(uint64(res.OrderMode))
		put(uint64(res.Supertile))
	}
	_, ft := gpu.CaptureTrace(g.BuildFrame(modeDigestFrames))
	passes, err := ReplayTrace(cfg, ft, modeDigestPasses)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range passes {
		put(uint64(r.Pass))
		put(uint64(r.RasterCycles))
		put(uint64(r.DRAMAccesses))
		put(math.Float64bits(r.TexHitRatio))
		put(math.Float64bits(r.AvgTexLatency))
		putString(r.Scheduler)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}
