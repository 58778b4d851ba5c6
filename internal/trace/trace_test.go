package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/raster"
)

func randomTrace(seed int64, tiles int) *FrameTrace {
	rng := rand.New(rand.NewSource(seed))
	ft := &FrameTrace{ScreenW: 640, ScreenH: 384}
	for id := 0; id < tiles; id++ {
		tw := raster.TileWork{
			TileID:          id,
			Primitives:      rng.Intn(50),
			Instructions:    uint64(rng.Intn(100000)),
			FragmentsShaded: rng.Intn(4096),
			FragmentsKilled: rng.Intn(512),
			PixelsCovered:   rng.Intn(4096),
		}
		addr := uint32(0x4000_0000)
		for q := 0; q < rng.Intn(40); q++ {
			tc := uint16(rng.Intn(4))
			qm := raster.QuadMeta{
				Fragments: uint8(1 + rng.Intn(4)),
				Instr:     uint16(rng.Intn(300)),
				Samples:   uint16(rng.Intn(8)),
				TexCount:  tc,
			}
			for t := 0; t < int(tc); t++ {
				addr += uint32(rng.Intn(4096)) &^ 63
				tw.TexLines = append(tw.TexLines, addr)
			}
			tw.Quads = append(tw.Quads, qm)
		}
		for p := 0; p < rng.Intn(20); p++ {
			tw.PBReads = append(tw.PBReads, 0x2000_0000+uint32(p*32))
		}
		for f := 0; f < rng.Intn(64); f++ {
			tw.FlushLines = append(tw.FlushLines, 0x8000_0000+uint32(f*64))
		}
		ft.Tiles = append(ft.Tiles, tw)
	}
	return ft
}

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ft := randomTrace(seed, 24)
		var buf bytes.Buffer
		if err := Write(&buf, ft); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ft, got) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	ft := &FrameTrace{ScreenW: 64, ScreenH: 64}
	var buf bytes.Buffer
	if err := Write(&buf, ft); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ScreenW != 64 || len(got.Tiles) != 0 {
		t.Errorf("empty trace mishandled: %+v", got)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE\x01rest")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBadVersionRejected(t *testing.T) {
	if _, err := Read(strings.NewReader("LTRC\xFF")); err == nil {
		t.Error("bad version accepted")
	}
}

func TestTruncatedRejected(t *testing.T) {
	ft := randomTrace(1, 8)
	var buf bytes.Buffer
	if err := Write(&buf, ft); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestCompression(t *testing.T) {
	// Delta encoding should keep local address streams well under 8 bytes
	// per access.
	ft := randomTrace(2, 64)
	var buf bytes.Buffer
	if err := Write(&buf, ft); err != nil {
		t.Fatal(err)
	}
	addrs := 0
	for _, tw := range ft.Tiles {
		addrs += len(tw.TexLines) + len(tw.PBReads) + len(tw.FlushLines)
	}
	if addrs > 0 && buf.Len() > addrs*8 {
		t.Errorf("trace too large: %d bytes for %d addresses", buf.Len(), addrs)
	}
}

// quadTrace encodes a one-tile trace by hand whose single quad carries the
// given field values and texCount texture lines, so a field can exceed what
// Write's raster.QuadMeta could hold.
func quadTrace(fragments, instr, samples, texCount uint64) []byte {
	b := append([]byte(magic), version)
	for _, v := range []uint64{64, 64, 1, 0, 1, instr, fragments, 0, fragments, 1, fragments, instr, samples, texCount, texCount} {
		b = binary.AppendUvarint(b, v)
	}
	for i := uint64(0); i < texCount; i++ {
		b = binary.AppendVarint(b, 64) // line deltas
	}
	return append(b, 0, 0) // no Parameter Buffer reads, no flush lines
}

// TestReadRefusesOverwideQuadFields checks that Read refuses a quad field
// wider than raster.QuadMeta's instead of storing it truncated, and still
// accepts each field at its maximum.
func TestReadRefusesOverwideQuadFields(t *testing.T) {
	cases := []struct {
		name                             string
		fragments, instr, samples, lines uint64
		ok                               bool
	}{
		{"at the limits", 255, 65535, 65535, 65535, true},
		{"fragments", 256, 4, 1, 1, false},
		{"instructions", 4, 65536, 1, 1, false},
		{"samples", 4, 4, 65536, 1, false},
		{"texture lines", 4, 4, 1, 65536, false},
	}
	for _, tc := range cases {
		ft, err := Read(bytes.NewReader(quadTrace(tc.fragments, tc.instr, tc.samples, tc.lines)))
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "overflow raster.QuadMeta") {
				t.Errorf("%s: Read = %v, want an overflow error", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Read: %v", tc.name, err)
		}
		q := ft.Tiles[0].Quads[0]
		if uint64(q.Fragments) != tc.fragments || uint64(q.Instr) != tc.instr ||
			uint64(q.Samples) != tc.samples || uint64(q.TexCount) != tc.lines {
			t.Errorf("%s: decoded %+v", tc.name, q)
		}
	}
}

// addrTrace encodes a one-tile trace by hand with no quads, no texture
// lines and no flush lines, whose Parameter Buffer stream declares count
// addresses and holds the given deltas, so an address can lie outside what
// Write's 32-bit streams could hold.
func addrTrace(count uint64, deltas ...int64) []byte {
	b := append([]byte(magic), version)
	for _, v := range []uint64{64, 64, 1, 0, 1, 0, 0, 0, 0, 0, 0, count} {
		b = binary.AppendUvarint(b, v)
	}
	for _, d := range deltas {
		b = binary.AppendVarint(b, d)
	}
	return b
}

// TestReadRefusesOutOfRangeAddresses checks that Read refuses an address
// outside [0, 2^32) instead of storing it truncated, also where the stream
// declares more addresses than the input holds, and accepts the extremes.
func TestReadRefusesOutOfRangeAddresses(t *testing.T) {
	const top = 1<<32 - 1
	cases := []struct {
		name string
		data []byte
		want string // error substring; "" accepts
	}{
		{"zero and the top address", append(addrTrace(2, 0, top), 0), ""},
		{"one past the top", append(addrTrace(2, top, 1), 0), "outside the 32-bit address space"},
		{"negative", append(addrTrace(2, 64, -128), 0), "outside the 32-bit address space"},
		{"delta wrapping int64", append(addrTrace(2, top, math.MaxInt64), 0), "outside the 32-bit address space"},
		{"past the top, count beyond the input", addrTrace(1000, 64, 1<<32), "outside the 32-bit address space"},
		{"in range, count beyond the input", addrTrace(1000, 64, 64), "EOF"},
	}
	for _, tc := range cases {
		ft, err := Read(bytes.NewReader(tc.data))
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Read = %v, want an error containing %q", tc.name, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Read: %v", tc.name, err)
		}
		if got := ft.Tiles[0].PBReads; !reflect.DeepEqual(got, []uint32{0, top}) {
			t.Errorf("%s: decoded %#x", tc.name, got)
		}
	}
}
