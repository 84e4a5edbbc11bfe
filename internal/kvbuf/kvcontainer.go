package kvbuf

import (
	"fmt"

	"mimir/internal/mem"
)

// KVC is the paper's KV container: an opaque object managing a collection of
// encoded KVs in one or more fixed-size buffer pages. Pages are allocated
// from the node arena as KVs are inserted and can be freed as the data is
// consumed (Drain), which is the core of Mimir's memory efficiency.
type KVC struct {
	buf  *pagedBuf
	hint Hint
	nkv  int64
}

// NewKVC creates an empty container whose pages come from arena. hint
// selects the KV encoding (see Hint).
func NewKVC(arena *mem.Arena, pageSize int, hint Hint) *KVC {
	return NewKVCOn(nil, arena, pageSize, hint)
}

// NewKVCOn creates a container whose pages are registered with a PageStore
// for out-of-core eviction (see PageStore). A nil store is NewKVC.
func NewKVCOn(store PageStore, arena *mem.Arena, pageSize int, hint Hint) *KVC {
	return &KVC{buf: newStorePagedBuf(store, arena, pageSize), hint: hint}
}

// Hint returns the container's encoding hint.
func (c *KVC) Hint() Hint { return c.hint }

// Append encodes and stores one KV.
func (c *KVC) Append(k, v []byte) error {
	// Validate hints before reserving so a rejected KV leaves no hole.
	if err := c.hint.Key.check("key", k); err != nil {
		return err
	}
	if err := c.hint.Val.check("value", v); err != nil {
		return err
	}
	n := c.hint.EncodedSize(k, v)
	r, err := c.buf.reserve(n)
	if err != nil {
		return err
	}
	dst := c.buf.at(r, n)
	enc, err := c.hint.Encode(dst[:0], k, v)
	if err != nil {
		return err
	}
	if len(enc) != n {
		panic(fmt.Sprintf("kvbuf: encoded size %d != computed size %d", len(enc), n))
	}
	c.nkv++
	return nil
}

// AppendChunk parses a buffer of concatenated encoded KVs (e.g. one rank's
// portion of an Alltoallv receive buffer) and appends each KV. It returns
// the number of KVs appended.
//
// The chunk is already in this container's encoding, so instead of a
// decode/re-encode round trip per KV it measures the maximal run of whole
// KVs that fits the head page's remainder and moves the run with one copy
// (fixed/fixed hints skip even the measuring — runs split by division).
// Runs never straddle a page boundary and the per-KV fallback handles page
// rolls, so the resulting page layout is byte-for-byte identical to
// appending each KV individually; a KV larger than a page fails in that
// fallback with Append's error.
func (c *KVC) AppendChunk(chunk []byte) (int, error) {
	count := 0
	pos := 0
	fixed, isFixed := c.hint.FixedSize()
	for pos < len(chunk) {
		room := c.buf.headRoom()
		if room == 0 {
			room = c.buf.pageSize // the next reserve opens a fresh page
		}
		runBytes, runKVs := 0, 0
		if isFixed {
			n := room / fixed
			if rem := (len(chunk) - pos) / fixed; n > rem {
				n = rem
			}
			runKVs, runBytes = n, n*fixed
		} else {
			for pos+runBytes < len(chunk) {
				n, err := c.hint.Measure(chunk[pos+runBytes:])
				if err != nil || runBytes+n > room {
					break // commit the valid prefix first; errors re-surface below
				}
				runBytes += n
				runKVs++
			}
		}
		if runKVs > 0 {
			r, err := c.buf.reserve(runBytes)
			if err != nil {
				return count, err
			}
			copy(c.buf.at(r, runBytes), chunk[pos:pos+runBytes])
			c.nkv += int64(runKVs)
			count += runKVs
			pos += runBytes
			continue
		}
		// No whole KV fits the head remainder (a page roll, or a KV larger
		// than a page), or the next KV is malformed: one per-KV append
		// replicates the slow path's layout and errors exactly.
		k, v, n, err := c.hint.Decode(chunk[pos:])
		if err != nil {
			return count, fmt.Errorf("kvbuf: bad chunk at offset %d: %w", pos, err)
		}
		if err := c.Append(k, v); err != nil {
			return count, err
		}
		pos += n
		count++
	}
	return count, nil
}

// NumKV returns the number of stored KVs.
func (c *KVC) NumKV() int64 { return c.nkv }

// Bytes returns the encoded payload bytes stored.
func (c *KVC) Bytes() int64 { return c.buf.usedBytes() }

// ReservedBytes returns the arena reservation currently held by the
// container's pages.
func (c *KVC) ReservedBytes() int64 { return c.buf.reservedBytes() }

// Scan calls fn for every stored KV in insertion order. The key and value
// slices alias container memory and are valid only during the call. Each
// page is pinned for the duration of its scan, so spilled pages stream
// back one at a time (plus the store's prefetch window), never all at once.
func (c *KVC) Scan(fn func(k, v []byte) error) error {
	for i := 0; i < c.buf.numPages(); i++ {
		p, err := c.buf.pinPage(i)
		if err != nil {
			return err
		}
		err = c.scanPage(p, fn)
		c.buf.unpinPage(i)
		if err != nil {
			return err
		}
	}
	return nil
}

// Drain is Scan that releases each page back to the arena immediately after
// its KVs are consumed — "when the data is read (consumed), the KVC frees
// buffers that are no longer needed". The container is empty afterwards,
// even on error.
func (c *KVC) Drain(fn func(k, v []byte) error) error {
	n := c.buf.numPages()
	c.nkv = 0
	var firstErr error
	for i := 0; i < n; i++ {
		if firstErr == nil {
			p, err := c.buf.pinPage(i)
			if err != nil {
				firstErr = err
			} else {
				err = c.scanPage(p, fn)
				c.buf.unpinPage(i)
				if err != nil {
					firstErr = err
				}
			}
		}
		c.buf.freePage(i)
	}
	c.buf.clear()
	return firstErr
}

func (c *KVC) scanPage(p *mem.Page, fn func(k, v []byte) error) error {
	data := p.Data()
	for pos := 0; pos < len(data); {
		k, v, n, err := c.hint.Decode(data[pos:])
		if err != nil {
			return fmt.Errorf("kvbuf: corrupt container page at %d: %w", pos, err)
		}
		if err := fn(k, v); err != nil {
			return err
		}
		pos += n
	}
	return nil
}

// Free releases all pages back to the arena.
func (c *KVC) Free() {
	c.buf.free()
	c.nkv = 0
}
