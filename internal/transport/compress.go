package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"mimir/internal/mem"
)

// Frame-level compression (wire v3). A sender with TCPConfig.Compress set
// deflates data-frame payloads that shrink: the op byte carries
// CompressedFlag and the payload becomes [u32 rawLen][deflate stream]. The
// decision is per frame — a payload that does not get smaller is sent plain
// — and purely sender-side: receivers always accept both forms, so ranks
// with different Compress settings interoperate. The frame CRC-32C is
// computed over the compressed bytes (compress-then-CRC), so CRC
// verification, the replay buffer, and fault injection all operate on the
// exact bytes that cross the wire, and a replayed frame is re-sent
// bit-identical to its first transmission.

// CompressedFlag marks a frame whose payload is deflate-compressed. It is a
// flag bit on the op byte; mask it off to recover the opcode. FrameMarker
// hooks always receive the base opcode, never the flagged byte.
const CompressedFlag byte = 0x80

// compressMinSize is the smallest payload worth attempting to compress:
// below it the [u32 rawLen] prefix and deflate framing overhead outweigh any
// plausible savings.
const compressMinSize = 128

// compressor pairs a pooled flate writer with its append sink so one pool
// Get covers both.
type compressor struct {
	fw  *flate.Writer
	dst appendWriter
}

type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

var compressors = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return &compressor{fw: fw}
}}

// decompressor pairs a pooled flate reader with its source and the byte
// that probes for trailing data, so after warmup inflating allocates only
// the Huffman tables compress/flate rebuilds for every stream it is reset
// to.
type decompressor struct {
	fr  io.ReadCloser
	br  bytes.Reader
	one [1]byte
}

var decompressors = sync.Pool{New: func() any {
	d := &decompressor{}
	d.fr = flate.NewReader(&d.br)
	return d
}}

// compressPayload appends [u32 rawLen][deflate(data)] to dst and reports
// whether the result is smaller than data itself. On ok=false (payload grew,
// or data is empty) the returned slice still carries whatever was appended —
// the caller recycles it either way.
func compressPayload(dst, data []byte) ([]byte, bool) {
	c := compressors.Get().(*compressor)
	c.dst.buf = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	c.fw.Reset(&c.dst)
	_, werr := c.fw.Write(data)
	cerr := c.fw.Close()
	out := c.dst.buf
	c.dst.buf = nil
	compressors.Put(c)
	if werr != nil || cerr != nil {
		return out, false // appendWriter cannot fail, but stay defensive
	}
	return out, len(out)-len(dst) < len(data)
}

// decompressPayload inflates a CompressedFlag payload into a buffer from the
// buffer pool, which the consumer hands back via Recycle like any received
// payload. rawLen is attacker-controlled until the stream proves it has the
// bytes: a claim up to trustedLen is allocated whole (as readFramePooled
// trusts a frame length up to it); above it the output grows chunk by chunk
// (mirroring readBody) instead of trusting the prefix. Either way the stream must produce exactly rawLen
// bytes followed by EOF.
func decompressPayload(comp []byte) ([]byte, error) {
	if len(comp) < 4 {
		return nil, fmt.Errorf("%w: truncated compressed payload (%d bytes)", ErrBadFrame, len(comp))
	}
	rawLen := int(binary.BigEndian.Uint32(comp))
	if rawLen > MaxFrameSize {
		return nil, fmt.Errorf("%w: compressed payload claims %d raw bytes (limit %d)", ErrBadFrame, rawLen, MaxFrameSize)
	}
	d := decompressors.Get().(*decompressor)
	defer decompressors.Put(d)
	d.br.Reset(comp[4:])
	if err := d.fr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return nil, fmt.Errorf("%w: inflate reset: %v", ErrBadFrame, err)
	}
	const chunk = 1 << 20
	var out []byte
	if rawLen <= trustedLen {
		out = mem.GetBuf(rawLen)
	} else {
		out = make([]byte, chunk)
	}
	if _, err := io.ReadFull(d.fr, out); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrBadFrame, err)
	}
	for len(out) < rawLen {
		take := rawLen - len(out)
		if take > chunk {
			take = chunk
		}
		start := len(out)
		out = append(out, make([]byte, take)...)
		if _, err := io.ReadFull(d.fr, out[start:]); err != nil {
			return nil, fmt.Errorf("%w: inflate: %v", ErrBadFrame, err)
		}
	}
	if _, err := io.ReadFull(d.fr, d.one[:]); err == nil {
		return nil, fmt.Errorf("%w: compressed payload longer than declared %d bytes", ErrBadFrame, rawLen)
	}
	return out, nil
}

// AppendFrameCompressed appends the wire-v3 encoding of f to dst, deflating
// the payload when that makes the frame smaller, and reports whether
// compression was applied. The TCP write path makes the same per-frame
// decision; this form is exported for tests and tooling that build frames
// offline.
func AppendFrameCompressed(dst []byte, f *Frame) ([]byte, bool) {
	if len(f.Data) >= compressMinSize {
		if comp, ok := compressPayload(nil, f.Data); ok {
			dst = appendFrameHeaderRaw(dst, f.Op|CompressedFlag, f.Src, f.Job, f.Tag, f.Seq, f.Time, comp)
			return append(dst, comp...), true
		}
	}
	return AppendFrame(dst, f), false
}
