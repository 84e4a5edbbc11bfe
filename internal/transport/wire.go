package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Wire format. Every connection starts with a fixed-size handshake in each
// direction (magic, protocol version, world size, rank, advertised listen
// address), after which the stream is a sequence of length-prefixed frames:
//
//	[u32 length][u8 op][u32 src][u32 job][i32 tag][u64 seq][f64 time][u32 crc][payload]
//
// length counts everything after itself (header + payload), all integers are
// big-endian, and time is an IEEE-754 bit pattern. src names the sending
// rank, job is the multiplexing channel the frame belongs to (0 is the
// default/control channel; see Mux), tag is the point-to-point tag (OpP2P
// only), seq is the collective sequence number (OpExchange; both sides of a
// channel count their collective calls, so a mismatch means the SPMD
// contract was broken) or the link-level cumulative frame count
// (OpResume/OpAck). crc is the CRC-32C of the header fields after length
// plus the payload: supercomputer interconnects corrupt bytes, TCP's 16-bit
// checksum misses some of them, and an undetected flip would silently break
// the byte-identical-output guarantee. Any burst error of 32 bits or fewer —
// in particular any single corrupted byte — is guaranteed to be detected and
// surfaces as ErrBadFrame, which the fault-tolerant transport treats as a
// link failure (reconnect + replay) rather than delivering bad data.
const (
	// Magic identifies a Mimir transport connection ("MIMR").
	Magic = 0x4D494D52
	// Version is the wire protocol version; both sides must match exactly.
	// Version 2 added the per-frame CRC-32C and the OpResume/OpAck link
	// recovery ops. Version 3 added optional frame-level flate compression:
	// a frame whose op byte carries CompressedFlag holds a deflated payload
	// (see compress.go). Compression is sender-side and per-frame, so mixed
	// Compress settings interoperate; the CRC is computed over the
	// compressed bytes (compress-then-CRC), keeping replay and corruption
	// detection on the exact wire bytes. Version 4 added the job field: a
	// channel id that lets independent jobs multiplex one standing mesh
	// (frame demux by job; see Mux). Version 5 added the epoch field to the
	// handshake: elastic membership rebuilds the mesh under a new epoch
	// number on every world change, and both sides of a connection must
	// agree on it exactly — a straggler from an earlier incarnation is
	// rejected at the handshake, so its frames can never reach a newer
	// world (see TCPConfig.Epoch).
	Version = 5

	// frameHeaderLen is the encoded size of op+src+job+tag+seq+time+crc.
	frameHeaderLen = 1 + 4 + 4 + 4 + 8 + 8 + 4
	// HeaderLen is the frame header size after the length prefix, exported
	// for fault-injection tooling that corrupts frames at byte granularity.
	HeaderLen = frameHeaderLen
	// MaxFrameSize bounds length so corrupted or hostile length prefixes
	// cannot trigger huge allocations.
	MaxFrameSize = 1 << 30
	// trustedLen is the largest payload a length prefix is trusted for:
	// up to it, the receiver draws the whole claim from the buffer pool at
	// once; above it, memory grows chunk by chunk with the data (readBody).
	trustedLen = 1 << 22
)

// crcTab is the Castagnoli table (hardware-accelerated on amd64/arm64).
var crcTab = crc32.MakeTable(crc32.Castagnoli)

// Frame operations.
const (
	// OpP2P carries one tagged point-to-point message.
	OpP2P byte = 1
	// OpExchange carries this rank's contribution to collective call seq.
	OpExchange byte = 2
	// OpAbort poisons the receiver's world; the payload is the cause.
	OpAbort byte = 3
	// OpBye announces a clean shutdown: the subsequent EOF on this
	// connection is not a peer death.
	OpBye byte = 4
	// OpTable is the bootstrap address table rank 0 sends each worker.
	OpTable byte = 5
	// OpResume is the reconnect handshake: Seq is the cumulative count of
	// data frames (OpP2P/OpExchange) the sender has received on this link,
	// telling the peer where to resume its replay.
	OpResume byte = 6
	// OpAck acknowledges receipt of the first Seq data frames on this link,
	// letting the sender prune its replay buffer.
	OpAck byte = 7

	opMax = OpAck
)

// ErrBadFrame is wrapped by every frame decoding failure.
var ErrBadFrame = errors.New("transport: bad frame")

// Frame is one wire message.
type Frame struct {
	Op   byte // base opcode; CompressedFlag is stripped during decode
	Src  uint32
	Job  uint32 // multiplexing channel (0 = default/control channel)
	Tag  int32
	Seq  uint64
	Time float64
	Data []byte
	// WireLen is the frame's encoded size on the wire (length prefix +
	// header + possibly-compressed payload), set by decoding. It is the
	// receiver-side mirror of the sender's replay-byte accounting, which
	// counts encoded bytes, so the two stay comparable when compression
	// makes len(Data) differ from the wire size.
	WireLen int
}

// appendFrameHeaderRaw appends the length prefix and header for a frame with
// the given wire op byte (which may carry CompressedFlag) and payload, whose
// bytes are NOT appended.
func appendFrameHeaderRaw(dst []byte, op byte, src, job uint32, tag int32, seq uint64, t float64, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameHeaderLen+len(payload)))
	start := len(dst)
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint32(dst, src)
	dst = binary.BigEndian.AppendUint32(dst, job)
	dst = binary.BigEndian.AppendUint32(dst, uint32(tag))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(t))
	crc := crc32.Update(0, crcTab, dst[start:])
	crc = crc32.Update(crc, crcTab, payload)
	return binary.BigEndian.AppendUint32(dst, crc)
}

// appendFrameHeader appends the length prefix and header of f (for a payload
// of len(f.Data), whose bytes are NOT appended) to dst.
func appendFrameHeader(dst []byte, f *Frame) []byte {
	return appendFrameHeaderRaw(dst, f.Op, f.Src, f.Job, f.Tag, f.Seq, f.Time, f.Data)
}

// AppendFrame appends the encoding of f to dst and returns the result.
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = appendFrameHeader(dst, f)
	return append(dst, f.Data...)
}

// DecodeFrame decodes one frame from the front of b, returning it and the
// number of bytes consumed. Truncated or corrupted input yields an error
// wrapping ErrBadFrame, never a panic.
func DecodeFrame(b []byte) (*Frame, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("%w: truncated length prefix (%d bytes)", ErrBadFrame, len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if n < frameHeaderLen {
		return nil, 0, fmt.Errorf("%w: length %d below header size %d", ErrBadFrame, n, frameHeaderLen)
	}
	if n > MaxFrameSize {
		return nil, 0, fmt.Errorf("%w: length %d exceeds limit %d", ErrBadFrame, n, MaxFrameSize)
	}
	if len(b) < 4+int(n) {
		return nil, 0, fmt.Errorf("%w: truncated frame (%d of %d bytes)", ErrBadFrame, len(b)-4, n)
	}
	f, err := parseFrameBody(b[4 : 4+int(n)])
	if err != nil {
		return nil, 0, err
	}
	return f, 4 + int(n), nil
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (*Frame, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(pre[:])
	if n < frameHeaderLen {
		return nil, fmt.Errorf("%w: length %d below header size %d", ErrBadFrame, n, frameHeaderLen)
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: length %d exceeds limit %d", ErrBadFrame, n, MaxFrameSize)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%w: truncated frame body: %v", ErrBadFrame, err)
	}
	return parseFrameBody(body)
}

// readBody reads an n-byte frame body without trusting n for the initial
// allocation: a corrupted or hostile length prefix must not make the
// receiver allocate gigabytes before the stream proves it actually has the
// bytes, so memory grows chunk by chunk with the data.
func readBody(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	if n <= chunk {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	b := make([]byte, chunk)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	for len(b) < n {
		take := n - len(b)
		if take > chunk {
			take = chunk
		}
		start := len(b)
		b = append(b, make([]byte, take)...)
		if _, err := io.ReadFull(r, b[start:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// parseFrameBody decodes the post-length portion of a frame held in one
// buffer (ReadFrame's fresh body, or DecodeFrame's input, which documents
// aliasing via the consumed count).
func parseFrameBody(body []byte) (*Frame, error) {
	return parseFrameParts(body[:frameHeaderLen], body[frameHeaderLen:])
}

// parseFrameParts decodes a frame from its header (the frameHeaderLen bytes
// after the length prefix) and its payload, which may live in separate
// buffers. Both are owned by the caller. An uncompressed payload is
// delivered as is — f.Data is payload itself, not a copy — so a payload
// drawn whole from the buffer pool reaches the consumer as the pooled buffer;
// a compressed payload is inflated into a buffer from the buffer pool and
// payload is left unreferenced. The CRC is checked before anything else —
// over the wire bytes, compressed or not — so corruption never reaches the
// inflater.
func parseFrameParts(hdr, payload []byte) (*Frame, error) {
	const crcOff = frameHeaderLen - 4
	want := binary.BigEndian.Uint32(hdr[crcOff:])
	got := crc32.Update(0, crcTab, hdr[:crcOff])
	got = crc32.Update(got, crcTab, payload)
	if got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %#x want %#x, %d bytes)", ErrBadFrame, got, want, frameHeaderLen+len(payload))
	}
	raw := hdr[0]
	f := &Frame{
		Op:      raw &^ CompressedFlag,
		Src:     binary.BigEndian.Uint32(hdr[1:]),
		Job:     binary.BigEndian.Uint32(hdr[5:]),
		Tag:     int32(binary.BigEndian.Uint32(hdr[9:])),
		Seq:     binary.BigEndian.Uint64(hdr[13:]),
		Time:    math.Float64frombits(binary.BigEndian.Uint64(hdr[21:])),
		WireLen: 4 + frameHeaderLen + len(payload),
	}
	if f.Op == 0 || f.Op > opMax {
		return nil, fmt.Errorf("%w: unknown op %d", ErrBadFrame, f.Op)
	}
	if len(payload) > 0 {
		f.Data = payload
	}
	if raw&CompressedFlag != 0 {
		data, err := decompressPayload(f.Data)
		if err != nil {
			return nil, err
		}
		f.Data = data
	}
	return f, nil
}

// WriteFrame writes f to w (typically a buffered writer; the caller
// flushes).
func WriteFrame(w io.Writer, f *Frame) error {
	buf := appendFrameHeader(make([]byte, 0, 4+frameHeaderLen), f)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if len(f.Data) > 0 {
		if _, err := w.Write(f.Data); err != nil {
			return err
		}
	}
	return nil
}

// hello is the per-connection handshake. The dialer sends its hello first,
// the acceptor validates it and replies with its own. Addr is the dialer's
// advertised mesh listener ("" on mesh connections, where the listener is
// already known). Epoch names the mesh incarnation the sender belongs to
// (0 for fixed-size worlds that never resize); the receiver rejects any
// mismatch, so frames from a stale epoch are transitively rejected — they
// can only arrive over a connection whose handshake already failed.
type hello struct {
	Rank, Size int
	Epoch      uint64
	Addr       string
}

const maxHelloAddr = 1 << 10

func writeHello(w io.Writer, h hello) error {
	if len(h.Addr) > maxHelloAddr {
		return fmt.Errorf("transport: advertised address of %d bytes exceeds %d", len(h.Addr), maxHelloAddr)
	}
	buf := make([]byte, 0, 23+len(h.Addr))
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = append(buf, Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Rank))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Size))
	buf = binary.BigEndian.AppendUint64(buf, h.Epoch)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Addr)))
	buf = append(buf, h.Addr...)
	_, err := w.Write(buf)
	return err
}

func readHello(r io.Reader) (hello, error) {
	var fixed [23]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return hello{}, fmt.Errorf("transport: handshake read: %w", err)
	}
	if m := binary.BigEndian.Uint32(fixed[:]); m != Magic {
		return hello{}, fmt.Errorf("transport: bad magic %#x (want %#x)", m, Magic)
	}
	if v := fixed[4]; v != Version {
		return hello{}, fmt.Errorf("transport: protocol version %d, want %d", v, Version)
	}
	h := hello{
		Rank:  int(binary.BigEndian.Uint32(fixed[5:])),
		Size:  int(binary.BigEndian.Uint32(fixed[9:])),
		Epoch: binary.BigEndian.Uint64(fixed[13:]),
	}
	alen := int(binary.BigEndian.Uint16(fixed[21:]))
	if alen > maxHelloAddr {
		return hello{}, fmt.Errorf("transport: advertised address of %d bytes exceeds %d", alen, maxHelloAddr)
	}
	if alen > 0 {
		addr := make([]byte, alen)
		if _, err := io.ReadFull(r, addr); err != nil {
			return hello{}, fmt.Errorf("transport: handshake address read: %w", err)
		}
		h.Addr = string(addr)
	}
	return h, nil
}

// encodeTable packs the bootstrap address table into an OpTable payload:
// u32 count, then per address u16 length + bytes.
func encodeTable(addrs []string) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(addrs)))
	for _, a := range addrs {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func decodeTable(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: truncated address table", ErrBadFrame)
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: address table of %d entries", ErrBadFrame, n)
	}
	b = b[4:]
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: truncated address table entry %d", ErrBadFrame, i)
		}
		alen := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < alen {
			return nil, fmt.Errorf("%w: truncated address %d (%d of %d bytes)", ErrBadFrame, i, len(b), alen)
		}
		addrs = append(addrs, string(b[:alen]))
		b = b[alen:]
	}
	return addrs, nil
}
