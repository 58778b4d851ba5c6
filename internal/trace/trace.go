// Package trace serializes rendering traces — the per-tile work streams the
// timing engine replays against the memory system — to a compact binary
// format. Recorded traces decouple the (expensive) functional rendering from
// (cheap) timing studies: a trace captured once can be re-simulated under
// any scheduler, cache or DRAM configuration, which is exactly how the
// original TEAPOT methodology drives its GPU model from captured GLES
// traces.
//
// Format (little-endian, varint-compressed):
//
//	magic "LTRC" | version u8
//	screenW, screenH varint
//	tileCount varint
//	per tile: id, primitives, instructions, fragment counters,
//	          quads (fragments, instr, samples, texline deltas),
//	          PB reads (deltas), flush lines (deltas)
//
// Texture line addresses are delta-encoded: consecutive accesses are highly
// local, so deltas are small.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/raster"
)

const (
	magic   = "LTRC"
	version = 1
)

// Buffered writers are pooled: trace capture runs once per frame in the
// steady-state loop, and the 4 KiB bufio buffer would otherwise be Write's
// only allocation.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

// FrameTrace is one frame's complete raster workload.
type FrameTrace struct {
	ScreenW, ScreenH int
	Tiles            []raster.TileWork // indexed by tile id
}

// Write serializes the trace.
//
//libra:hotpath
func Write(w io.Writer, ft *FrameTrace) error {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil)
		writerPool.Put(bw)
	}()
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	putUvarint(bw, uint64(ft.ScreenW))
	putUvarint(bw, uint64(ft.ScreenH))
	putUvarint(bw, uint64(len(ft.Tiles)))
	for _, tw := range ft.Tiles {
		writeTile(bw, &tw)
	}
	return bw.Flush()
}

func writeTile(bw *bufio.Writer, tw *raster.TileWork) {
	putUvarint(bw, uint64(tw.TileID))
	putUvarint(bw, uint64(tw.Primitives))
	putUvarint(bw, tw.Instructions)
	putUvarint(bw, uint64(tw.FragmentsShaded))
	putUvarint(bw, uint64(tw.FragmentsKilled))
	putUvarint(bw, uint64(tw.PixelsCovered))

	putUvarint(bw, uint64(len(tw.Quads)))
	for _, q := range tw.Quads {
		putUvarint(bw, uint64(q.Fragments))
		putUvarint(bw, uint64(q.Instr))
		putUvarint(bw, uint64(q.Samples))
		putUvarint(bw, uint64(q.TexCount))
	}
	writeAddrs(bw, tw.TexLines)
	writeAddrs(bw, tw.PBReads)
	writeAddrs(bw, tw.FlushLines)
}

// writeAddrs delta-encodes an address stream (zig-zag varints).
func writeAddrs(bw *bufio.Writer, addrs []uint32) {
	putUvarint(bw, uint64(len(addrs)))
	prev := int64(0)
	for _, a := range addrs {
		d := int64(a) - prev
		putVarint(bw, d)
		prev = int64(a)
	}
}

// Read deserializes a trace written by Write. It decodes the varints by
// index out of a pooled window onto r, which it refills as the decoding
// reaches its end. A quad field wider than its raster.QuadMeta field, or an
// address outside [0, 2^32), is an error, not a truncated value.
func Read(r io.Reader) (*FrameTrace, error) {
	d := decoderPool.Get().(*decoder)
	d.reset(r)
	defer func() {
		d.reset(nil)
		decoderPool.Put(d)
	}()
	for len(d.b) < 5 && d.rerr == nil {
		d.fill()
	}
	if len(d.b) < 5 {
		if len(d.b) > 0 && d.rerr == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, d.rerr
	}
	head := d.b[:5]
	if string(head[:4]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	if head[4] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[4])
	}
	d.off = 5
	ft := &FrameTrace{}
	ft.ScreenW = d.int()
	ft.ScreenH = d.int()
	n := d.int()
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > 1<<22 {
		return nil, fmt.Errorf("trace: implausible tile count %d", n)
	}
	ft.Tiles = make([]raster.TileWork, 0, min(n, d.left()/minTileBytes))
	for i := 0; i < n; i++ {
		ft.Tiles = append(ft.Tiles, raster.TileWork{})
		if err := d.tile(&ft.Tiles[i]); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

// minTileBytes is the smallest encoded tile: ten one-byte varints (six
// counters, the quad count and three empty address streams).
const minTileBytes = 10

// decoder reads varints by index out of a window onto its input. The first
// decoding error sticks: later reads leave it in place, and the callers
// check it before using what they read.
type decoder struct {
	r    io.Reader
	b    []byte // bytes read from r; its capacity is the window
	off  int    // b[off:] is not yet decoded
	rerr error  // r's error once it returned one; io.EOF at its end
	err  error
}

// decoderPool holds decoders with their 4 KiB windows, bufio's default
// buffer size.
var decoderPool = sync.Pool{New: func() any { return &decoder{b: make([]byte, 0, 4096)} }}

func (d *decoder) reset(r io.Reader) {
	d.r, d.b, d.off, d.rerr, d.err = r, d.b[:0], 0, nil, nil
}

// fill moves the undecoded bytes to the front of the window and reads more
// behind them. Like bufio.Reader's, it gives up with io.ErrNoProgress after
// 100 reads that return neither data nor an error.
func (d *decoder) fill() {
	d.b, d.off = d.b[:copy(d.b[:cap(d.b)], d.b[d.off:])], 0
	for i := 0; i < 100; i++ {
		n, err := d.r.Read(d.b[len(d.b):cap(d.b)])
		d.b = d.b[:len(d.b)+n]
		d.rerr = err
		if n > 0 || err != nil {
			return
		}
	}
	d.rerr = io.ErrNoProgress
}

// left returns an upper bound on the bytes still to decode: exact when r
// reports how many bytes it has left, as bytes.Reader does, else
// math.MaxInt. Declared counts are checked against it, so that a corrupt
// count cannot allocate more than the input could fill.
func (d *decoder) left() int {
	if s, ok := d.r.(interface{ Len() int }); ok {
		return len(d.b) - d.off + s.Len()
	}
	return math.MaxInt
}

// uvarint decodes one varint with binary.ReadUvarint's results and errors.
// A one-byte varint in the window takes the fast path.
func (d *decoder) uvarint() uint64 {
	if b, i := d.b, d.off; uint(i) < uint(len(b)) && b[i] < 0x80 {
		d.off = i + 1
		return uint64(b[i])
	}
	return d.uvarintLong()
}

func (d *decoder) uvarintLong() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		for d.off+i == len(d.b) { // fill keeps b[off:], moved to the front
			if d.rerr != nil {
				if d.rerr == io.EOF && i > 0 {
					d.err = io.ErrUnexpectedEOF
				} else {
					d.err = d.rerr
				}
				return 0
			}
			d.fill()
		}
		c := d.b[d.off+i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			d.off += i + 1
			return x | uint64(c)<<s
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	d.err = errOverflow
	return 0
}

// errOverflow is binary.ReadUvarint's error for a varint longer than 64
// bits, with its wording: ReplayTrace returns it to callers.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

func (d *decoder) int() int { return int(d.uvarint()) }

// quadFits reports whether a quad's decoded fields fit raster.QuadMeta's: a
// fragment count up to 255, and instruction, sample and texture-line counts
// up to 65535.
func quadFits(fragments, instr, samples, texCount uint64) bool {
	return fragments <= math.MaxUint8 && max(instr, samples, texCount) <= math.MaxUint16
}

// quadError is the error of a tile's quad i whose fields quadFits refuses:
// the decoding error met while reading them, if any (the reads after an
// error return 0), else quadFieldsError.
func (d *decoder) quadError(i int, fragments, instr, samples, texCount uint64) error {
	if d.err != nil {
		return d.err
	}
	return quadFieldsError(i, fragments, instr, samples, texCount)
}

// quadFieldsError is Read's error for quad i of a tile whose fields do not
// fit raster.QuadMeta's.
func quadFieldsError(i int, fragments, instr, samples, texCount uint64) error {
	return fmt.Errorf("trace: quad %d fields (fragments %d, instructions %d, samples %d, texture lines %d) overflow raster.QuadMeta",
		i, fragments, instr, samples, texCount)
}

func (d *decoder) tile(tw *raster.TileWork) error {
	tw.TileID = d.int()
	tw.Primitives = d.int()
	tw.Instructions = d.uvarint()
	tw.FragmentsShaded = d.int()
	tw.FragmentsKilled = d.int()
	tw.PixelsCovered = d.int()
	nq := d.int()
	if d.err != nil {
		return d.err
	}
	if nq < 0 || nq > 1<<24 {
		return fmt.Errorf("trace: implausible quad count %d", nq)
	}
	if nq > d.left()/4 {
		// Each quad is four varints, so the input ends before the quads
		// do, unless one of the quads it holds overflows first.
		for i := 0; d.err == nil; i++ {
			if f, in, sm, tc := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint(); !quadFits(f, in, sm, tc) {
				return d.quadError(i, f, in, sm, tc)
			}
		}
		return d.err
	}
	if nq > 0 {
		tw.Quads = make([]raster.QuadMeta, nq)
	}
	texLines := 0
	for i := range tw.Quads {
		f, in, sm, tc := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint()
		if !quadFits(f, in, sm, tc) {
			return d.quadError(i, f, in, sm, tc)
		}
		q := &tw.Quads[i]
		q.Fragments, q.Instr, q.TexCount, q.Samples = uint8(f), uint16(in), uint16(tc), uint16(sm)
		texLines += int(tc)
	}
	if d.err != nil {
		return d.err
	}
	var err error
	if tw.TexLines, err = d.addrs(); err != nil {
		return err
	}
	if texLines != len(tw.TexLines) {
		return fmt.Errorf("trace: quad tex counts (%d) disagree with stream (%d)", texLines, len(tw.TexLines))
	}
	if tw.PBReads, err = d.addrs(); err != nil {
		return err
	}
	if tw.FlushLines, err = d.addrs(); err != nil {
		return err
	}
	return nil
}

// addrs decodes a delta-encoded address stream (zig-zag varints) of
// addresses in [0, 2^32).
func (d *decoder) addrs() ([]uint32, error) {
	n := d.int()
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > 1<<26 {
		return nil, fmt.Errorf("trace: implausible address count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	// A failed read returns 0, which leaves prev in range, so an address
	// error is never reported after a decoding error.
	prev := int64(0)
	if n > d.left() {
		// Each address takes at least one byte, so the input ends before
		// the stream does, unless an address it holds lies outside first.
		for i := 0; d.err == nil; i++ {
			if prev += unzigzag(d.uvarint()); !addrFits(prev) {
				return nil, addrError(i, prev)
			}
		}
		return nil, d.err
	}
	out := make([]uint32, n)
	for i := range out {
		if prev += unzigzag(d.uvarint()); !addrFits(prev) {
			return nil, addrError(i, prev)
		}
		out[i] = uint32(prev)
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// unzigzag decodes a zig-zag varint's value (binary.Varint's mapping).
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// addrFits reports whether a decoded address lies in [0, 2^32), the range
// raster.TileWork's 32-bit streams hold.
func addrFits(a int64) bool { return uint64(a) <= math.MaxUint32 }

// addrError is Read's error for the i-th address of a stream, a, that
// addrFits refuses.
func addrError(i int, a int64) error {
	return fmt.Errorf("trace: address %d of a stream, %#x, lies outside the 32-bit address space", i, a)
}

// putUvarint emits v byte-by-byte (same wire format as binary.PutUvarint).
// A stack scratch array passed to bw.Write would escape through the writer's
// underlying io.Writer interface and turn every varint into a heap
// allocation; WriteByte never escapes anything.
func putUvarint(bw *bufio.Writer, v uint64) {
	for v >= 0x80 {
		bw.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	bw.WriteByte(byte(v))
}

// putVarint zig-zag encodes v (same wire format as binary.PutVarint).
func putVarint(bw *bufio.Writer, v int64) {
	putUvarint(bw, uint64(v)<<1^uint64(v>>63))
}
