package core

import (
	"testing"

	"repro/internal/workloads"
)

func TestAblationPoliciesRenderIdenticalImages(t *testing.T) {
	modes := []Mode{ModeZOrder, ModeHilbert, ModeReverse, ModeRandom, ModeAltTemperature}
	var hashes []uint64
	for _, m := range modes {
		cfg := PTRConfig(testW, testH, 2)
		cfg.Mode = m
		frames := renderFrames(t, cfg, "HCR", 3)
		hashes = append(hashes, frames[2].FrameHash)
		for _, f := range frames {
			if f.Fragments == 0 {
				t.Fatalf("mode %v: no fragments", m)
			}
		}
	}
	for i := 1; i < len(hashes); i++ {
		if hashes[i] != hashes[0] {
			t.Errorf("mode %v image differs from %v", modes[i], modes[0])
		}
	}
}

func TestReverseAlternatesSchedulerName(t *testing.T) {
	cfg := PTRConfig(testW, testH, 2)
	cfg.Mode = ModeReverse
	frames := renderFrames(t, cfg, "Jet", 2)
	for _, f := range frames {
		if f.SchedulerName != "reverse" {
			t.Errorf("frame %d scheduler = %q", f.Frame, f.SchedulerName)
		}
	}
}

func TestAltTemperatureUsesRankingAfterWarmup(t *testing.T) {
	cfg := PTRConfig(testW, testH, 2)
	cfg.Mode = ModeAltTemperature
	frames := renderFrames(t, cfg, "CCS", 3)
	if frames[0].SchedulerName == "alt-temperature" {
		t.Error("first frame has no ranking data")
	}
	if frames[2].SchedulerName != "alt-temperature" {
		t.Errorf("warm frame scheduler = %q", frames[2].SchedulerName)
	}
}

func TestPrefetchConfigRuns(t *testing.T) {
	cfg := DefaultConfig(testW, testH)
	cfg.PrefetchTexture = true
	frames := renderFrames(t, cfg, "HCR", 2)
	if frames[1].TotalCycles <= 0 {
		t.Fatal("prefetch config broke simulation")
	}
	// Prefetching must not change the image.
	base := renderFrames(t, DefaultConfig(testW, testH), "HCR", 2)
	if frames[1].FrameHash != base[1].FrameHash {
		t.Error("prefetching changed the rendered image")
	}
}

func TestRefreshAddsLatency(t *testing.T) {
	plain := DefaultConfig(testW, testH)
	withRef := DefaultConfig(testW, testH)
	withRef.DRAM.RefreshInterval = 2000
	withRef.DRAM.RefreshLatency = 150
	a := renderFrames(t, plain, "CCS", 2)
	b := renderFrames(t, withRef, "CCS", 2)
	if b[1].DRAMStats.Refreshes == 0 {
		t.Fatal("refresh never fired")
	}
	if b[1].FrameHash != a[1].FrameHash {
		t.Error("refresh changed the image")
	}
}

func TestCapSupertile(t *testing.T) {
	// A tiny grid cannot hold 4 supertiles per RU at size 16.
	g := New(LIBRAConfig(testW, testH, 2)) // 10x6 tiles
	if got := g.capSupertile(16); got >= 16 {
		t.Errorf("cap did not shrink size 16 on a 10x6 grid: %d", got)
	}
	if got := g.capSupertile(2); got != 2 {
		t.Errorf("size 2 should never shrink, got %d", got)
	}
	// A large grid keeps size 16: 1920x1080 -> 60x34 tiles -> 4x3=12 supers
	// of 16x16 >= 8.
	big := New(LIBRAConfig(1920, 1080, 2))
	if got := big.capSupertile(16); got != 16 {
		t.Errorf("FHD grid should allow 16x16, got %d", got)
	}
}

func TestReplayTraceSizeMismatchRejected(t *testing.T) {
	p, _ := workloads.ByAbbrev("Jet")
	g := p.New()
	gpu := New(DefaultConfig(testW, testH))
	_, ft := gpu.CaptureTrace(g.BuildFrame(0))
	if _, err := ReplayTrace(DefaultConfig(testW*2, testH), ft, 1); err == nil {
		t.Error("screen mismatch accepted")
	}
}
