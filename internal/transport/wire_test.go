package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func frameEqual(a, b *Frame) bool {
	return a.Op == b.Op && a.Src == b.Src && a.Tag == b.Tag && a.Seq == b.Seq &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		bytes.Equal(a.Data, b.Data)
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Op: OpP2P, Src: 3, Tag: -1, Seq: 9, Time: 1.25, Data: []byte("hello")},
		{Op: OpExchange, Src: 0, Tag: 0, Seq: 1 << 40, Time: 0},
		{Op: OpAbort, Src: 7, Tag: 42, Time: math.Inf(1), Data: []byte("cause")},
		{Op: OpBye, Src: 1},
		{Op: OpTable, Src: 0, Data: encodeTable([]string{"a:1", "b:2"})},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	// Decode from the byte slice.
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !frameEqual(got, want) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// Decode from a reader, via WriteFrame.
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !frameEqual(got, want) {
			t.Fatalf("read frame %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	valid := AppendFrame(nil, &Frame{Op: OpP2P, Src: 1, Data: []byte("xyz")})
	cases := map[string][]byte{
		"empty":        nil,
		"short prefix": valid[:3],
		"truncated":    valid[:len(valid)-1],
		"below header": {0, 0, 0, 1, OpP2P},
		"unknown op":   AppendFrame(nil, &Frame{Op: 99}),
		"zero op":      AppendFrame(nil, &Frame{Op: 0}),
		// Ops 6 and 7 were the link-recovery resume and ack of wire v2–v5.
		"retired op 6": AppendFrame(nil, &Frame{Op: 6, Src: 2, Seq: 1234}),
		"retired op 7": AppendFrame(nil, &Frame{Op: 7, Src: 3, Seq: 1 << 33}),
		"huge length":  {0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	// ReadFrame on a truncated stream must error, not hang or panic.
	if _, err := ReadFrame(bytes.NewReader(valid[:len(valid)-1])); err == nil {
		t.Error("ReadFrame on truncated stream succeeded")
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("ReadFrame on empty stream: %v, want io.EOF", err)
	}
}

// TestCRCDetectsCorruption flips every post-length byte of a valid frame and
// asserts the CRC catches it: a single corrupted byte is a burst error of at
// most 8 bits, which CRC-32 is guaranteed to detect.
func TestCRCDetectsCorruption(t *testing.T) {
	enc := AppendFrame(nil, &Frame{Op: OpP2P, Src: 2, Tag: 5, Seq: 9, Time: 1.5, Data: []byte("payload!")})
	for off := 4; off < len(enc); off++ {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), enc...)
			mut[off] ^= mask
			if _, _, err := DecodeFrame(mut); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("corruption at offset %d mask %#x decoded: %v", off, mask, err)
			}
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := hello{Rank: 3, Size: 16, Addr: "127.0.0.1:4242"}
	if err := writeHello(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := readHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
	// Bad magic and bad version must be rejected.
	raw := buf.Bytes()
	if err := writeHello(&buf, want); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	raw[0] ^= 0xFF
	if _, err := readHello(bytes.NewReader(raw)); err == nil {
		t.Error("bad magic accepted")
	}
	raw[0] ^= 0xFF
	raw[4]++
	if _, err := readHello(bytes.NewReader(raw)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestTableRoundTrip(t *testing.T) {
	for _, addrs := range [][]string{nil, {}, {""}, {"a"}, {"127.0.0.1:1", "10.0.0.1:65535", ""}} {
		got, err := decodeTable(encodeTable(addrs))
		if err != nil {
			t.Fatalf("%v: %v", addrs, err)
		}
		if len(got) != len(addrs) {
			t.Fatalf("%v: got %v", addrs, got)
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("%v: got %v", addrs, got)
			}
		}
	}
	for _, b := range [][]byte{nil, {0}, {0, 0, 0, 2, 0}, {0, 0, 0, 1, 0, 5, 'x'}} {
		if _, err := decodeTable(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("decodeTable(%v) err = %v, want ErrBadFrame", b, err)
		}
	}
}

// FuzzWireRoundTrip checks that any frame sequence encodes and decodes
// identically, and that arbitrary bytes fed to the decoders return errors
// rather than panicking.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(byte(OpP2P), uint32(0), int32(-1), uint64(0), 1.5, []byte("hi"), []byte{})
	f.Add(byte(OpExchange), uint32(7), int32(3), uint64(1<<50), math.NaN(), []byte{}, []byte{0, 0, 0, 0})
	f.Add(byte(OpTable), uint32(1), int32(0), uint64(2), math.Inf(-1), bytes.Repeat([]byte{0xAB}, 100), []byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, op byte, src uint32, tag int32, seq uint64, tm float64, data, raw []byte) {
		// Clamp op into the valid range: round-tripping is only promised for
		// well-formed frames.
		validOp := op%opMax + 1
		want := &Frame{Op: validOp, Src: src, Tag: tag, Seq: seq, Time: tm, Data: data}
		enc := AppendFrame(nil, want)
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode of valid frame failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if len(got.Data) == 0 && len(want.Data) == 0 {
			got.Data, want.Data = nil, nil
		}
		if !frameEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		got2, err := ReadFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("ReadFrame of valid frame failed: %v", err)
		}
		if len(got2.Data) == 0 {
			got2.Data = nil
		}
		if !frameEqual(got2, want) {
			t.Fatalf("reader round trip: got %+v want %+v", got2, want)
		}
		// A second frame appended to the first decodes from the remainder.
		two := AppendFrame(append([]byte(nil), enc...), want)
		_, n1, err := DecodeFrame(two)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeFrame(two[n1:]); err != nil {
			t.Fatalf("second frame: %v", err)
		}

		// Arbitrary input: must never panic; any error is acceptable.
		DecodeFrame(raw)
		ReadFrame(bytes.NewReader(raw))
		decodeTable(raw)
		readHello(bytes.NewReader(raw))
		// Corrupting any single byte of a valid frame must not panic either.
		if len(enc) > 0 {
			i := int(src) % len(enc)
			mut := append([]byte(nil), enc...)
			mut[i] ^= 0x80
			DecodeFrame(mut)
			ReadFrame(bytes.NewReader(mut))
		}
		// Truncations must error, never over-read.
		for _, cut := range []int{0, 1, 4, 4 + frameHeaderLen - 1, len(enc) - 1} {
			if cut >= len(enc) {
				continue
			}
			if _, _, err := DecodeFrame(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", cut)
			}
		}
	})
}

// FuzzPooledReadMatchesDecode feeds the same bytes to the TCP reader's
// pooled decoder (readFramePooled, which splits header from payload) and
// to DecodeFrame (one buffer): both must yield the same frame — every
// header field and the payload bytes, having consumed the same bytes — or
// both must fail, readFramePooled with ErrBadFrame once the input holds
// a whole length prefix. So the receive hot path and the reference decoder
// cannot drift apart on CRC, op, length or inflate checks.
func FuzzPooledReadMatchesDecode(f *testing.F) {
	f.Add(AppendFrame(nil, &Frame{Op: OpP2P, Src: 1, Job: 2, Tag: -3, Seq: 4, Time: 0.5, Data: []byte("hello")}))
	f.Add(AppendFrame(nil, &Frame{Op: 7, Src: 3, Seq: 9})) // retired ack op: rejected
	comp, _ := AppendFrameCompressed(nil, &Frame{Op: OpExchange, Src: 1, Job: 7, Seq: 2, Data: bytes.Repeat([]byte("abcd"), 100)})
	f.Add(comp)
	f.Add([]byte{0, 0, 0, 5, OpP2P})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, n, derr := DecodeFrame(raw)
		r := bytes.NewReader(raw)
		got, perr := readFramePooled(r, new(frameScratch))
		if derr != nil {
			if perr == nil {
				t.Fatalf("DecodeFrame rejected the input (%v), readFramePooled accepted it", derr)
			}
			if len(raw) >= 4 && !errors.Is(perr, ErrBadFrame) {
				t.Fatalf("readFramePooled failed with %v, want ErrBadFrame", perr)
			}
			return
		}
		if perr != nil {
			t.Fatalf("DecodeFrame accepted the input, readFramePooled failed: %v", perr)
		}
		if got.Op != want.Op || got.Src != want.Src || got.Job != want.Job || got.Tag != want.Tag ||
			got.Seq != want.Seq || math.Float64bits(got.Time) != math.Float64bits(want.Time) ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("frames differ: pooled %+v, decoded %+v", got, want)
		}
		if read := len(raw) - r.Len(); read != n {
			t.Fatalf("readFramePooled consumed %d bytes, DecodeFrame %d", read, n)
		}
	})
}
