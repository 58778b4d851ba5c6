package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/raster"
	"repro/internal/workloads"
)

// Golden tile-trace digests: an FNV-1a hash of every field of every tile's
// TileWork — the quad records, the texture-line, Parameter Buffer and flush
// address streams, and the per-tile counters — plus each frame's
// FrameBuffer.Hash, over frames 0–2 of each benchmark at 320×192 on the
// baseline GPU, one digest per texture filter (nearest, bilinear,
// trilinear). The frame-hash goldens pin pixels only; these pin the address
// streams the timing model replays, so every cycle count, including those of
// the bilinear and trilinear footprints no default workload exercises. Any
// change means the functional raster now feeds the timing model different
// work: review it as a model change and regenerate the map from the test's
// failure output.
var goldenTileTraceDigests = map[string][3]uint64{
	"AAt": {0x6aeca4419e22b1e6, 0x40ae08e06f0ddb93, 0x9a535914b3481d4d},
	"AmU": {0xeddc9f51bbc39e96, 0x235914f0713277e5, 0xad90b157d7e9e0af},
	"AnB": {0x6eb219d1f2a579ad, 0xf7ebe11421e8960c, 0x32ce3623eca2bc83},
	"BBR": {0xf7ad9bb4f2d7b70e, 0x4de4403fc8cefb3d, 0xe3e506d262794aee},
	"BeB": {0xa4f95808707bc60f, 0x92b90582e448102f, 0xbab53aa71242a881},
	"BlB": {0x3524d8c3aaac7005, 0x73a4737ace27947b, 0xf94572951bb7f940},
	"CCS": {0x2c07bdc3cc39d8db, 0xb8cbbfc6107a6819, 0x9dcb997b5704f23a},
	"ChK": {0xe1a8fee04a5bdf50, 0x127e3528660f8bb6, 0x8e9bbd88a4bdce5b},
	"CoC": {0x4f633317bb3f1ea2, 0x6f6b70090ec12fc3, 0x33efef1a12684e12},
	"CrS": {0x3bab47d6ab24f30a, 0x6edf86883d73336b, 0xc7421edb1e1d0200},
	"CuT": {0x1b9bacb4459d5b12, 0x628c1dbf9ca21f5b, 0x15af01d91746f9bb},
	"DrM": {0x94bfb7fb0b692408, 0xee0a62c7bd093f16, 0xc832675a7adcf82},
	"FaF": {0xfed1c69abefb32f3, 0x4316295e6b02bf1, 0x1ab2508b51d39190},
	"FlB": {0xcc04bedea8b9787e, 0xd7b32a039c21e260, 0xfd82b9fba50ebde3},
	"FrF": {0x94ecb385f6bbc790, 0x6d809af334d4c6c9, 0x2ff82575f76003ec},
	"GDL": {0xb8f3142e2b8ecd3b, 0xa4552be96b7692bc, 0xce9042aa33630920},
	"GrT": {0x7c73761fb0876ad6, 0x5a5013a564546887, 0xacffbaebd7acc31d},
	"Gra": {0x31aaefeda64c21a1, 0x4250872062cc5f5b, 0xd5df516839ec4425},
	"HCR": {0x53d7f6c19f008652, 0x2bd8e19138d05ddb, 0x4e0350c11d14342d},
	"HoW": {0x3585cc82221beb50, 0x158c42c5e5d7fc14, 0x3082e37981fec6b4},
	"Jet": {0x8eedd8a9a18915be, 0x29f74e8999d6be78, 0xdd6d830822167ade},
	"LiK": {0xc7b7a15b46a8a2c2, 0xcbe6a2439e934bc, 0x7d1589ac3ad5027f},
	"MiC": {0x6d3f9c50eb0aa1e8, 0x73308e2619a2699c, 0x2d0568000edd108f},
	"PoG": {0xaa2a8f9e4a5c526, 0xcef727ccf37234d8, 0x8aa59baffe654526},
	"RoK": {0xe26facfe3767b538, 0x7d63c8941b3fbef0, 0x614ee22edeff58ee},
	"RoM": {0x1b7fe17b1c24b77, 0xacfa13aa0ca313a, 0x36a1c7c571ee9f57},
	"SoC": {0xf9379a557da29d96, 0xd3c2223b5461341e, 0x982ea21984c96379},
	"SpD": {0x542d0bfe76fa4be7, 0xa19458772f99096, 0xa9abc6702e59402a},
	"SuS": {0xabf74b2cf1177972, 0xcb83846ab3ca47e6, 0x646be1924cb4817c},
	"TeR": {0xfa46d72626e526e5, 0xf364734002eb88c, 0xcadacf14c7899fe3},
	"VeX": {0xfaba2b89ca0eeefe, 0x4d69e9b104977c6d, 0x770f3246d11357ab},
	"WoT": {0xe1f2a0dc9ffc011a, 0x8e31f9a2188866a1, 0xd5be243459e5352c},
}

// tileTraceFrames is the frame window each digest covers.
const tileTraceFrames = 3

func TestTileTraceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite under three filters")
	}
	filters := [3]raster.Filtering{raster.FilterNearest, raster.FilterBilinear, raster.FilterTrilinear}
	for _, p := range workloads.All() {
		var got [3]uint64
		for i, f := range filters {
			got[i] = tileTraceDigest(p, f)
		}
		want, ok := goldenTileTraceDigests[p.Abbrev]
		if !ok || got != want {
			t.Errorf("%s: tile-trace digests %#x, golden %#x — if the raster change"+
				" is intentional, regenerate the golden entry:\n\t%q: {%#x, %#x, %#x},",
				p.Abbrev, got, want, p.Abbrev, got[0], got[1], got[2])
		}
	}
}

// tileTraceDigest captures the first tileTraceFrames frames of p under
// filter f and hashes their complete functional output.
func tileTraceDigest(p workloads.Profile, f raster.Filtering) uint64 {
	cfg := DefaultConfig(testW, testH)
	cfg.Sim.Filtering = f
	game := p.New()
	gpu := New(cfg)
	h := fnv.New64a()
	var buf []byte
	for frame := 0; frame < tileTraceFrames; frame++ {
		res, ft := gpu.CaptureTrace(game.BuildFrame(frame))
		buf = binary.LittleEndian.AppendUint64(buf[:0], res.FrameHash)
		for i := range ft.Tiles {
			buf = appendTileWork(buf, &ft.Tiles[i])
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// appendTileWork encodes every field of w, slice lengths included, so two
// works encode equally exactly when they are field-for-field equal. Each
// quad's first texture line (the running sum of the earlier quads'
// TexCounts) and each address are written as 64-bit words: the bytes the
// recorded digests hash.
func appendTileWork(buf []byte, w *raster.TileWork) []byte {
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(uint64(w.TileID))
	put(uint64(w.Primitives))
	put(w.Instructions)
	put(uint64(w.FragmentsShaded))
	put(uint64(w.FragmentsKilled))
	put(uint64(w.PixelsCovered))
	put(uint64(len(w.Quads)))
	texStart := uint64(0)
	for _, q := range w.Quads {
		put(uint64(q.Fragments))
		put(uint64(q.Instr))
		put(texStart)
		put(uint64(q.TexCount))
		put(uint64(q.Samples))
		texStart += uint64(q.TexCount)
	}
	for _, s := range [][]uint32{w.TexLines, w.PBReads, w.FlushLines} {
		put(uint64(len(s)))
		for _, a := range s {
			put(uint64(a))
		}
	}
	return buf
}
