// Package kvbuf implements the key-value machinery shared by both engines:
// the KV wire format with its optional KV-hint encodings (Section III-C3 of
// the paper), paged KV containers (KVC) and KMV containers (KMVC) whose
// pages are charged to a node memory arena (Section III-B), the combiner
// hash bucket used by KV compression and partial reduction (Sections
// III-C1/C2), and the two-pass KV-to-KMV convert algorithm (Section III-A).
package kvbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// lenKind selects how the length of a key or value is represented.
type lenKind uint8

const (
	kindVarlen lenKind = iota // 4-byte length header before the data
	kindFixed                 // fixed, known length; no header
	kindStrZ                  // NUL-terminated string; no header
)

// LenMode describes the length encoding of one side (key or value) of a KV.
// The paper's default stores an explicit length for both sides ("an
// eight-byte header (two integers)"); the KV-hint optimization replaces a
// side's header with a fixed length, or with NUL termination for strings
// (the paper's reserved length of -1).
type LenMode struct {
	kind lenKind
	n    int
}

// Varlen is the default mode: a 4-byte length header precedes the data.
func Varlen() LenMode { return LenMode{kind: kindVarlen} }

// Fixed declares that every datum on this side is exactly n bytes, so no
// header is stored. n must be positive.
func Fixed(n int) LenMode {
	if n <= 0 {
		panic(fmt.Sprintf("kvbuf: Fixed length must be positive, got %d", n))
	}
	return LenMode{kind: kindFixed, n: n}
}

// StrZ declares that every datum on this side is a string without interior
// NUL bytes; it is stored NUL-terminated and its length is recomputed with
// the equivalent of strlen instead of being stored.
func StrZ() LenMode { return LenMode{kind: kindStrZ} }

// IsVarlen reports whether the mode stores an explicit length header.
func (m LenMode) IsVarlen() bool { return m.kind == kindVarlen }

// String returns a human-readable description of the mode.
func (m LenMode) String() string {
	switch m.kind {
	case kindVarlen:
		return "varlen"
	case kindFixed:
		return fmt.Sprintf("fixed(%d)", m.n)
	case kindStrZ:
		return "strz"
	}
	return "invalid"
}

// headerSize returns the per-datum header bytes this mode adds.
func (m LenMode) headerSize() int {
	if m.kind == kindVarlen {
		return 4
	}
	return 0
}

// dataSize returns the stored size of a datum of length n under this mode
// (excluding the header).
func (m LenMode) dataSize(n int) int {
	if m.kind == kindStrZ {
		return n + 1 // trailing NUL
	}
	return n
}

// check validates that b is encodable under the mode.
func (m LenMode) check(what string, b []byte) error {
	switch m.kind {
	case kindFixed:
		if len(b) != m.n {
			return fmt.Errorf("kvbuf: %s length %d violates fixed-length hint %d", what, len(b), m.n)
		}
	case kindStrZ:
		if bytes.IndexByte(b, 0) >= 0 {
			return fmt.Errorf("kvbuf: %s contains a NUL byte, violating the string hint", what)
		}
	}
	return nil
}

// Hint is the KV-hint setting for a container: the length modes of keys and
// values. The zero value is NOT valid; use DefaultHint or construct one
// explicitly.
type Hint struct {
	Key, Val LenMode
}

// DefaultHint is the paper's default encoding: explicit 4-byte length
// headers for both key and value (8 bytes of header per KV).
func DefaultHint() Hint { return Hint{Key: Varlen(), Val: Varlen()} }

// EncodedSize returns the number of bytes Encode will produce for (k, v).
func (h Hint) EncodedSize(k, v []byte) int {
	return h.Key.headerSize() + h.Val.headerSize() + h.Key.dataSize(len(k)) + h.Val.dataSize(len(v))
}

// Encode appends the KV encoding of (k, v) to dst and returns the extended
// slice. Layout: [klen?][vlen?][key(+NUL?)][value(+NUL?)], headers present
// only for varlen sides — matching the paper's description of the header
// preceding the actual data.
func (h Hint) Encode(dst []byte, k, v []byte) ([]byte, error) {
	if err := h.Key.check("key", k); err != nil {
		return dst, err
	}
	if err := h.Val.check("value", v); err != nil {
		return dst, err
	}
	if h.Key.IsVarlen() {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(k)))
	}
	if h.Val.IsVarlen() {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	}
	dst = append(dst, k...)
	if h.Key.kind == kindStrZ {
		dst = append(dst, 0)
	}
	dst = append(dst, v...)
	if h.Val.kind == kindStrZ {
		dst = append(dst, 0)
	}
	return dst, nil
}

// Decode reads one KV from the front of buf, returning the key and value as
// subslices of buf (no copying) and the total number of bytes consumed.
func (h Hint) Decode(buf []byte) (k, v []byte, n int, err error) {
	pos := 0
	klen, vlen := -1, -1
	if h.Key.IsVarlen() {
		if pos+4 > len(buf) {
			return nil, nil, 0, fmt.Errorf("kvbuf: truncated key header")
		}
		klen = int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
	} else if h.Key.kind == kindFixed {
		klen = h.Key.n
	}
	if h.Val.IsVarlen() {
		if pos+4 > len(buf) {
			return nil, nil, 0, fmt.Errorf("kvbuf: truncated value header")
		}
		vlen = int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
	} else if h.Val.kind == kindFixed {
		vlen = h.Val.n
	}
	// Key bytes.
	if klen < 0 { // strz: recompute the length, the paper's strlen
		i := bytes.IndexByte(buf[pos:], 0)
		if i < 0 {
			return nil, nil, 0, fmt.Errorf("kvbuf: unterminated string key")
		}
		k = buf[pos : pos+i]
		pos += i + 1
	} else {
		if pos+klen > len(buf) {
			return nil, nil, 0, fmt.Errorf("kvbuf: truncated key (%d bytes at %d of %d)", klen, pos, len(buf))
		}
		k = buf[pos : pos+klen]
		pos += klen
	}
	// Value bytes.
	if vlen < 0 {
		i := bytes.IndexByte(buf[pos:], 0)
		if i < 0 {
			return nil, nil, 0, fmt.Errorf("kvbuf: unterminated string value")
		}
		v = buf[pos : pos+i]
		pos += i + 1
	} else {
		if pos+vlen > len(buf) {
			return nil, nil, 0, fmt.Errorf("kvbuf: truncated value (%d bytes at %d of %d)", vlen, pos, len(buf))
		}
		v = buf[pos : pos+vlen]
		pos += vlen
	}
	return k, v, pos, nil
}

// Measure returns the number of bytes the first KV in buf occupies, with
// exactly Decode's validation and errors, but without materializing the key
// or value. It is the scan half of the AppendChunk fast path: whole runs of
// measured KVs can then be moved with one copy instead of a decode/encode
// round trip per KV.
func (h Hint) Measure(buf []byte) (int, error) {
	pos := 0
	klen, vlen := -1, -1
	if h.Key.IsVarlen() {
		if pos+4 > len(buf) {
			return 0, fmt.Errorf("kvbuf: truncated key header")
		}
		klen = int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
	} else if h.Key.kind == kindFixed {
		klen = h.Key.n
	}
	if h.Val.IsVarlen() {
		if pos+4 > len(buf) {
			return 0, fmt.Errorf("kvbuf: truncated value header")
		}
		vlen = int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
	} else if h.Val.kind == kindFixed {
		vlen = h.Val.n
	}
	if klen < 0 { // strz: find the NUL, the paper's strlen
		i := bytes.IndexByte(buf[pos:], 0)
		if i < 0 {
			return 0, fmt.Errorf("kvbuf: unterminated string key")
		}
		pos += i + 1
	} else {
		if pos+klen > len(buf) {
			return 0, fmt.Errorf("kvbuf: truncated key (%d bytes at %d of %d)", klen, pos, len(buf))
		}
		pos += klen
	}
	if vlen < 0 {
		i := bytes.IndexByte(buf[pos:], 0)
		if i < 0 {
			return 0, fmt.Errorf("kvbuf: unterminated string value")
		}
		pos += i + 1
	} else {
		if pos+vlen > len(buf) {
			return 0, fmt.Errorf("kvbuf: truncated value (%d bytes at %d of %d)", vlen, pos, len(buf))
		}
		pos += vlen
	}
	return pos, nil
}

// FixedSize returns the constant encoded size of every KV under this hint
// when both sides are fixed-length, and ok=false otherwise. Fixed/fixed
// containers need no per-KV scan at all: chunk runs split by division.
func (h Hint) FixedSize() (int, bool) {
	if h.Key.kind == kindFixed && h.Val.kind == kindFixed {
		return h.Key.n + h.Val.n, true
	}
	return 0, false
}

// HashKey returns the 64-bit FNV-1a hash of k. The engines route a KV to
// rank HashKey(k) % P, so the keys one rank holds all share a residue; the
// buckets therefore never index by this value directly but by slotHash, a
// remix of it.
func HashKey(k []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range k {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// slotHash is the hash the buckets index by: HashKey pushed through the
// 64-bit murmur3 finalizer, a bijection under which every output bit
// depends on every input bit. One hash pass over the key thus serves two
// moduli — HashKey % P picks the rank and the remix's low bits pick the
// chain head inside a Bucket. The two must be independent: a rank holds
// only keys of one HashKey residue, so an index drawn from the bits that
// already chose the rank reaches 1/P of the chain heads and chains grow P×
// too long.
func slotHash(k []byte) uint64 {
	h := HashKey(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
