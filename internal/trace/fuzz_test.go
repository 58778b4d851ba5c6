package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/raster"
)

// FuzzTraceRead checks Read against oracleRead, the bufio-based decoder it
// replaced (given Read's refusal of an address outside [0, 2^32)): on every
// input both return deep-equal traces, or both fail with the same error
// text. Every trace Read accepts must also survive a Write and Read round
// trip deep-equal: a field Read stored truncated would not.
func FuzzTraceRead(f *testing.F) {
	for seed := int64(0); seed < 3; seed++ {
		var buf bytes.Buffer
		if err := Write(&buf, randomTrace(seed, 3)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if seed == 0 {
			f.Add(buf.Bytes()[:buf.Len()/2]) // truncated
		}
	}
	// A screen width whose varint runs past 64 bits.
	f.Add([]byte("LTRC\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"))
	// A Parameter Buffer address of 2^32, one past the 32-bit streams' top.
	f.Add(append(addrTrace(1, 1<<32), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		want, werr := oracleRead(bytes.NewReader(data))
		if errText(err) != errText(werr) {
			t.Fatalf("Read error %v, oracle %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Read decoded %+v, oracle %+v", got, want)
		}
		var buf bytes.Buffer
		if err := Write(&buf, got); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, got)
		}
	})
}

// errText is err's message, "" for nil. The two decoders must fail with
// the same text, not just the same kind of error: ReplayTrace returns it
// and the tracer prints it.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// oracleRead is the decoder Read replaced: bufio plus
// binary.ReadUvarint. It grows its slices as it decodes instead of making
// them at their declared lengths, so a fuzzed count costs no more memory
// than the input holds; what it decodes and the errors it returns are the
// same. Like Read, it refuses an address outside [0, 2^32) as soon as it
// decodes one.
func oracleRead(r io.Reader) (*FrameTrace, error) {
	br := bufio.NewReader(r)
	var head [5]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, err
	}
	if string(head[:4]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	if head[4] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[4])
	}
	ft := &FrameTrace{}
	var err error
	ft.ScreenW, err = oracleInt(br, err)
	ft.ScreenH, err = oracleInt(br, err)
	n, err := oracleInt(br, err)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<22 {
		return nil, fmt.Errorf("trace: implausible tile count %d", n)
	}
	ft.Tiles = []raster.TileWork{}
	for i := 0; i < n; i++ {
		ft.Tiles = append(ft.Tiles, raster.TileWork{})
		if err := oracleTile(br, &ft.Tiles[i]); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

func oracleTile(br *bufio.Reader, tw *raster.TileWork) error {
	var err error
	tw.TileID, err = oracleInt(br, err)
	tw.Primitives, err = oracleInt(br, err)
	tw.Instructions, err = oracleUint(br, err)
	tw.FragmentsShaded, err = oracleInt(br, err)
	tw.FragmentsKilled, err = oracleInt(br, err)
	tw.PixelsCovered, err = oracleInt(br, err)
	nq, err := oracleInt(br, err)
	if err != nil {
		return err
	}
	if nq < 0 || nq > 1<<24 {
		return fmt.Errorf("trace: implausible quad count %d", nq)
	}
	texLines := 0
	for i := 0; i < nq; i++ {
		f, e1 := oracleUint(br, nil)
		in, e2 := oracleUint(br, e1)
		sm, e3 := oracleUint(br, e2)
		tc, e4 := oracleUint(br, e3)
		if e4 != nil {
			return e4
		}
		if f > 255 || in > 65535 || sm > 65535 || tc > 65535 {
			return quadFieldsError(i, f, in, sm, tc)
		}
		tw.Quads = append(tw.Quads, raster.QuadMeta{
			Fragments: uint8(f),
			Instr:     uint16(in),
			TexCount:  uint16(tc),
			Samples:   uint16(sm),
		})
		texLines += int(tc)
	}
	if tw.TexLines, err = oracleAddrs(br); err != nil {
		return err
	}
	if texLines != len(tw.TexLines) {
		return fmt.Errorf("trace: quad tex counts (%d) disagree with stream (%d)", texLines, len(tw.TexLines))
	}
	if tw.PBReads, err = oracleAddrs(br); err != nil {
		return err
	}
	tw.FlushLines, err = oracleAddrs(br)
	return err
}

func oracleAddrs(br *bufio.Reader) ([]uint32, error) {
	n, err := oracleInt(br, nil)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<26 {
		return nil, fmt.Errorf("trace: implausible address count %d", n)
	}
	var out []uint32
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		prev += d
		if prev < 0 || prev > math.MaxUint32 {
			return nil, addrError(i, prev)
		}
		out = append(out, uint32(prev))
	}
	return out, nil
}

func oracleUint(br *bufio.Reader, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	return binary.ReadUvarint(br)
}

func oracleInt(br *bufio.Reader, err error) (int, error) {
	v, e := oracleUint(br, err)
	return int(v), e
}
