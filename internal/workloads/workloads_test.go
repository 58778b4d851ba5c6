package workloads

import (
	"testing"

	"repro/internal/scene"
)

func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 32 {
		t.Fatalf("suite size = %d, want 32", len(all))
	}
	mem := MemoryIntensiveSuite()
	comp := ComputeIntensiveSuite()
	if len(mem) != 16 || len(comp) != 16 {
		t.Fatalf("split = %d/%d, want 16/16", len(mem), len(comp))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Abbrev] {
			t.Errorf("duplicate abbreviation %q", p.Abbrev)
		}
		seen[p.Abbrev] = true
		if p.Class != Class2D && p.Class != Class25D && p.Class != Class3D {
			t.Errorf("%s: bad class %q", p.Abbrev, p.Class)
		}
	}
	// Paper-named benchmarks must be present.
	for _, a := range []string{"SuS", "CCS", "HCR", "AAt", "GrT", "Gra", "RoK", "BlB", "CoC", "HoW", "RoM", "AmU", "BBR", "CrS", "Jet", "GDL"} {
		if !seen[a] {
			t.Errorf("paper benchmark %s missing", a)
		}
	}
}

func TestByAbbrev(t *testing.T) {
	p, err := ByAbbrev("SuS")
	if err != nil || p.Abbrev != "SuS" {
		t.Fatalf("ByAbbrev(SuS) = %+v, %v", p, err)
	}
	if _, err := ByAbbrev("nope"); err == nil {
		t.Error("unknown abbrev should error")
	}
}

func TestBuildFrameDeterministic(t *testing.T) {
	p, _ := ByAbbrev("CCS")
	g1 := p.New()
	g2 := p.New()
	s1 := g1.BuildFrame(3)
	s2 := g2.BuildFrame(3)
	if len(s1.DrawCalls) != len(s2.DrawCalls) {
		t.Fatalf("nondeterministic draw-call count: %d vs %d", len(s1.DrawCalls), len(s2.DrawCalls))
	}
	for i := range s1.DrawCalls {
		if s1.DrawCalls[i].Model != s2.DrawCalls[i].Model {
			t.Fatalf("draw %d transform differs between identical games", i)
		}
	}
}

func TestFrameCoherence(t *testing.T) {
	// Consecutive frames must have identical structure (same draws, same
	// textures) and only slightly moved transforms — the property Fig. 8
	// measures.
	p, _ := ByAbbrev("SuS")
	g := p.New()
	a := g.BuildFrame(10)
	b := g.BuildFrame(11)
	if len(a.DrawCalls) != len(b.DrawCalls) {
		t.Fatalf("draw-call count changed between consecutive frames: %d -> %d", len(a.DrawCalls), len(b.DrawCalls))
	}
	moved := 0
	for i := range a.DrawCalls {
		da, db := a.DrawCalls[i], b.DrawCalls[i]
		if da.Mesh != db.Mesh {
			t.Fatalf("draw %d mesh changed between frames", i)
		}
		if len(da.Material.Textures) > 0 && da.Material.Textures[0] != db.Material.Textures[0] {
			t.Fatalf("draw %d texture changed between frames", i)
		}
		// Translation delta must be small.
		dx := da.Model[3] - db.Model[3]
		dy := da.Model[7] - db.Model[7]
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx > 0.2 || dy > 0.2 {
			// Wrapping objects may jump; allow a few.
			moved++
		}
	}
	if moved > len(a.DrawCalls)/10 {
		t.Errorf("%d/%d draws jumped between consecutive frames", moved, len(a.DrawCalls))
	}
}

func TestSceneCutChangesLayout(t *testing.T) {
	p, _ := ByAbbrev("CCS") // CutEvery = 40
	g := p.New()
	a := g.BuildFrame(39)
	b := g.BuildFrame(40)
	diff := 0
	for i := range a.DrawCalls {
		if i < len(b.DrawCalls) && a.DrawCalls[i].Model != b.DrawCalls[i].Model {
			diff++
		}
	}
	if diff == 0 {
		t.Error("scene cut should change the layout")
	}
}

func TestTextureAddressesStableAcrossFrames(t *testing.T) {
	p, _ := ByAbbrev("HCR")
	g := p.New()
	s1 := g.BuildFrame(0)
	base1 := s1.DrawCalls[0].Material.Textures[0].Base
	s2 := g.BuildFrame(7)
	base2 := s2.DrawCalls[0].Material.Textures[0].Base
	if base1 != base2 {
		t.Error("texture addresses must be stable across frames")
	}
}

func TestMemoryIntensiveHaveBiggerFootprints(t *testing.T) {
	avg := func(ps []Profile) float64 {
		var total float64
		for _, p := range ps {
			total += float64(p.New().TextureFootprintBytes())
		}
		return total / float64(len(ps))
	}
	memAvg := avg(MemoryIntensiveSuite())
	compAvg := avg(ComputeIntensiveSuite())
	if memAvg <= compAvg*2 {
		t.Errorf("memory-intensive footprint (%.1f MB) should dwarf compute-intensive (%.1f MB)",
			memAvg/1e6, compAvg/1e6)
	}
	// Table II: suite-average footprint exceeds 4 MB.
	suiteAvg := (memAvg*16 + compAvg*16) / 32
	if suiteAvg < 4e6 {
		t.Errorf("suite average footprint = %.1f MB, want > 4 MB", suiteAvg/1e6)
	}
}

func TestScenesHaveContent(t *testing.T) {
	for _, p := range All() {
		g := p.New()
		s := g.BuildFrame(0)
		if len(s.DrawCalls) < 10 {
			t.Errorf("%s: only %d draw calls", p.Abbrev, len(s.DrawCalls))
		}
		tris, textured := 0, false
		for _, dc := range s.DrawCalls {
			tris += len(dc.Mesh.Indices) / 3
			for _, tex := range dc.Material.Textures {
				textured = textured || tex != nil
			}
		}
		if tris < 20 {
			t.Errorf("%s: only %d triangles", p.Abbrev, tris)
		}
		if !textured {
			t.Errorf("%s: no textures", p.Abbrev)
		}
		// All draws carry a fragment program and HUD games carry blends.
		for i, dc := range s.DrawCalls {
			if dc.Material.Program.Name == "" {
				t.Errorf("%s draw %d: empty program", p.Abbrev, i)
			}
			if dc.VertexProgram.Name == "" {
				t.Errorf("%s draw %d: empty vertex program", p.Abbrev, i)
			}
		}
	}
}

func TestClassesUseExpectedCameras(t *testing.T) {
	for _, ab := range []string{"SuS", "CoC"} {
		p, _ := ByAbbrev(ab)
		g := p.New()
		s := g.BuildFrame(0)
		// Perspective matrices have m[15] == 0; ortho has m[15] == 1.
		if s.Camera.Proj[15] != 0 {
			t.Errorf("%s: 3D/2.5D game should use perspective", ab)
		}
	}
	p, _ := ByAbbrev("CCS")
	s := p.New().BuildFrame(0)
	if s.Camera.Proj[15] != 1 {
		t.Error("CCS: 2D game should use orthographic projection")
	}
}

func TestBlendModesPresent(t *testing.T) {
	p, _ := ByAbbrev("CCS")
	s := p.New().BuildFrame(0)
	var opaque, alpha bool
	for _, dc := range s.DrawCalls {
		switch dc.Material.Blend {
		case scene.BlendOpaque:
			opaque = true
		case scene.BlendAlpha:
			alpha = true
		}
	}
	if !opaque || !alpha {
		t.Error("2D games should mix opaque and alpha draws")
	}
}

func TestAtlasQuadUVWindow(t *testing.T) {
	m := atlasQuad(64, 1024)
	maxU := float32(0)
	for _, v := range m.Vertices {
		if v.UV.X > maxU {
			maxU = v.UV.X
		}
	}
	if maxU != 64.0/1024.0 {
		t.Errorf("atlas window UV span = %v, want %v", maxU, 64.0/1024.0)
	}
	// A window larger than the texture clamps to the full texture.
	full := atlasQuad(512, 256)
	maxU = 0
	for _, v := range full.Vertices {
		if v.UV.X > maxU {
			maxU = v.UV.X
		}
	}
	if maxU != 1 {
		t.Errorf("oversized window should clamp to 1, got %v", maxU)
	}
}

func Test3DGamesHaveWorldContent(t *testing.T) {
	for _, ab := range []string{"SuS", "CoC", "WoT"} {
		p, _ := ByAbbrev(ab)
		s := p.New().BuildFrame(0)
		world, overlay := 0, 0
		for _, dc := range s.DrawCalls {
			if dc.ScreenSpace {
				overlay++
			} else {
				world++
			}
		}
		if world == 0 {
			t.Errorf("%s: 3D game has no world-space draws", ab)
		}
		if overlay == 0 {
			t.Errorf("%s: 3D game has no HUD/overlay draws", ab)
		}
	}
}

func TestFootprintMatchesAllocatorUsage(t *testing.T) {
	p, _ := ByAbbrev("CCS")
	g := p.New()
	fp := g.TextureFootprintBytes()
	if fp == 0 {
		t.Fatal("no footprint")
	}
	// Footprint is stable across frames (textures pre-allocated in New).
	g.BuildFrame(0)
	g.BuildFrame(5)
	if g.TextureFootprintBytes() != fp {
		t.Error("footprint changed after building frames")
	}
}

func TestSuiteClassMix(t *testing.T) {
	counts := map[Class]int{}
	for _, p := range All() {
		counts[p.Class]++
	}
	if counts[Class2D] == 0 || counts[Class25D] == 0 || counts[Class3D] == 0 {
		t.Errorf("suite should span 2D/2.5D/3D: %v", counts)
	}
}
