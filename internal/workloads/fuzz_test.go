package workloads

import (
	"testing"

	"repro/internal/gpipe"
	"repro/internal/mem"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/raster"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// fuzzPipeline builds a fresh geometry pipeline over its own memory system,
// so every fuzz execution is independent.
func fuzzPipeline() *gpipe.Pipeline {
	hier := mem.NewHierarchy(
		cache.Config{Name: "L2", SizeBytes: 256 * 1024, LineBytes: 64, Ways: 8, HitLatency: 18},
		dram.DefaultConfig(),
	)
	return gpipe.New(gpipe.DefaultConfig(),
		cache.Config{Name: "vertex", SizeBytes: 4 * 1024, LineBytes: 64, Ways: 2, HitLatency: 1},
		hier)
}

// FuzzWorkloadGen drives the whole front half of the simulator — profile
// instantiation, per-frame scene construction, geometry processing, polygon
// list building and functional tile rasterization — from fuzzed profile
// mutations, and checks the structural invariants every later stage relies
// on: primitive references stay in range, Parameter Buffer accounting is
// exact, tile work never escapes its tile, and the generator is
// deterministic for a given (profile, seed, frame).
func FuzzWorkloadGen(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(0), uint8(8), uint8(12), uint8(0), uint8(1), uint8(2))
	f.Add(uint8(6), int64(-977), uint16(63), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0))
	f.Add(uint8(17), int64(4242), uint16(7), uint8(47), uint8(39), uint8(1), uint8(3), uint8(3))
	f.Add(uint8(31), int64(0), uint16(500), uint8(20), uint8(1), uint8(8), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, frame16 uint16, scatter, clusterN, cutEvery, wSel, hSel uint8) {
		all := All()
		p := all[int(pi)%len(all)]

		// Mutate the profile. Params holds slices, so copy them before
		// editing — the registry must stay pristine across executions.
		pr := p.Params
		pr.Clusters = append([]ClusterSpec(nil), pr.Clusters...)
		pr.HUD = append([]HUDSpec(nil), pr.HUD...)
		pr.Scatter = int(scatter % 48)
		pr.CutEvery = int(cutEvery % 9)
		if pr.Scatter > 0 && pr.ScatterTex <= 0 {
			pr.ScatterTex = 64
		}
		if pr.Scatter > 0 && pr.ScatterSize <= 0 {
			pr.ScatterSize = 0.02
		}
		if pr.Scatter > 0 && pr.ScatterProg.Name == "" {
			pr.ScatterProg = shader.Sprite
		}
		if len(pr.Clusters) > 0 {
			pr.Clusters[0].Count = int(clusterN % 48)
		}
		p.Seed = seed
		p.Params = pr

		ws := []int{128, 192, 256, 320}[int(wSel)%4]
		hs := []int{64, 96, 128, 192}[int(hSel)%4]
		frame := int(frame16 % 128)

		g := p.New()
		if got := g.TextureFootprintBytes(); got == 0 && (pr.BGLayers > 0 || pr.Terrain) {
			t.Fatal("textured profile reports zero footprint")
		}
		sc := g.BuildFrame(frame)
		prims, _ := fuzzPipeline().Run(sc, ws, hs, 0)
		grid := tiling.NewGrid(ws, hs)
		lists := new(tiling.Binner).Bin(grid, prims)

		// Polygon List Builder invariants.
		if len(lists.Lists) != grid.NumTiles() {
			t.Fatalf("%d tile lists for %d tiles", len(lists.Lists), grid.NumTiles())
		}
		binned := 0
		for tile, refs := range lists.Lists {
			lastAddr := uint64(0)
			for i, ref := range refs {
				if ref.Prim < 0 || ref.Prim >= len(prims) {
					t.Fatalf("tile %d ref %d: primitive %d out of range [0,%d)", tile, i, ref.Prim, len(prims))
				}
				if ref.Addr < mem.ParamBase {
					t.Fatalf("tile %d ref %d: Parameter Buffer address %#x below region base", tile, i, ref.Addr)
				}
				if i > 0 && ref.Addr <= lastAddr {
					t.Fatalf("tile %d ref %d: Parameter Buffer addresses not ascending", tile, i)
				}
				lastAddr = ref.Addr
			}
			binned += len(refs)
		}
		if binned != lists.Binned {
			t.Fatalf("Binned=%d but lists hold %d refs", lists.Binned, binned)
		}
		if want := uint64(lists.Binned) * tiling.PBEntryBytes; lists.PBBytes != want {
			t.Fatalf("PBBytes=%d, want %d (%d entries)", lists.PBBytes, want, lists.Binned)
		}

		// Functional rasterization invariants, every tile.
		r := raster.NewRenderer(grid)
		fb := raster.NewFrameBuffer(ws, hs)
		const tilePixels = tiling.TileSize * tiling.TileSize
		for tile := 0; tile < grid.NumTiles(); tile++ {
			w := r.RenderTile(sc, prims, lists.Lists[tile], tile, fb)
			if w.TileID != tile {
				t.Fatalf("tile %d work labelled %d", tile, w.TileID)
			}
			if w.FragmentsShaded < 0 || w.FragmentsKilled < 0 || w.PixelsCovered < 0 || w.Primitives < 0 {
				t.Fatalf("tile %d: negative work counters %+v", tile, w)
			}
			if w.FragmentsShaded+w.FragmentsKilled > w.PixelsCovered {
				t.Fatalf("tile %d: shaded %d + killed %d exceed covered %d",
					tile, w.FragmentsShaded, w.FragmentsKilled, w.PixelsCovered)
			}
			var frags int
			var instr uint64
			texStart := 0
			for qi, q := range w.Quads {
				if q.Fragments == 0 || q.Fragments > 4 {
					t.Fatalf("tile %d quad %d: %d fragments", tile, qi, q.Fragments)
				}
				end := texStart + int(q.TexCount)
				if end > len(w.TexLines) {
					t.Fatalf("tile %d quad %d: texture range [%d,%d) exceeds %d lines",
						tile, qi, texStart, end, len(w.TexLines))
				}
				texStart = end
				frags += int(q.Fragments)
				instr += uint64(q.Instr)
			}
			if frags != w.FragmentsShaded {
				t.Fatalf("tile %d: quad fragments sum %d != FragmentsShaded %d", tile, frags, w.FragmentsShaded)
			}
			if instr != w.Instructions {
				t.Fatalf("tile %d: quad instruction sum %d != Instructions %d", tile, instr, w.Instructions)
			}
			if w.PixelsCovered > tilePixels*len(lists.Lists[tile]) {
				t.Fatalf("tile %d: %d pixels covered from %d primitives in a %d-pixel tile",
					tile, w.PixelsCovered, len(lists.Lists[tile]), tilePixels)
			}
		}

		// Determinism: the same (profile, seed, frame) must regenerate the
		// identical workload from scratch.
		sc2 := p.New().BuildFrame(frame)
		prims2, _ := fuzzPipeline().Run(sc2, ws, hs, 0)
		lists2 := new(tiling.Binner).Bin(grid, prims2)
		if len(prims2) != len(prims) || lists2.Binned != lists.Binned || lists2.PBBytes != lists.PBBytes {
			t.Fatalf("regeneration diverged: %d/%d/%d prims/binned/PB vs %d/%d/%d",
				len(prims2), lists2.Binned, lists2.PBBytes, len(prims), lists.Binned, lists.PBBytes)
		}
	})
}
