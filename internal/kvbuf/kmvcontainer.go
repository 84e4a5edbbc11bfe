package kvbuf

import (
	"encoding/binary"
	"fmt"

	"mimir/internal/mem"
)

// kmvMetaBytes is the accounting charge for one KMV record's bookkeeping
// entry (ref, sizes, cursor), mirroring the container's internal index cost.
const kmvMetaBytes = 32

// KMVC is the paper's KMV container: it stores <key, <value1, value2, ...>>
// lists in arena-charged pages. Records are laid out contiguously and sized
// exactly, which is what the two-pass convert algorithm enables.
//
// Record layout: [klen?][nvals][key(+NUL?)] [vlen? value (+NUL?)]* — length
// headers appear only for varlen sides, per the container's hint.
type KMVC struct {
	arena *mem.Arena
	buf   *pagedBuf
	hint  Hint
	recs  []kmvRec
}

type kmvRec struct {
	r      ref
	size   int // total record bytes
	keyLen int
	nvals  int
	// filling state
	cursor  int // next value write offset within the record
	written int // values written so far
}

// NewKMVC creates an empty KMV container.
func NewKMVC(arena *mem.Arena, pageSize int, hint Hint) *KMVC {
	return NewKMVCOn(nil, arena, pageSize, hint)
}

// NewKMVCOn creates a KMV container whose pages are registered with a
// PageStore for out-of-core eviction. A nil store is NewKMVC.
func NewKMVCOn(store PageStore, arena *mem.Arena, pageSize int, hint Hint) *KMVC {
	return &KMVC{arena: arena, buf: newStorePagedBuf(store, arena, pageSize), hint: hint}
}

// recordSize returns the exact encoded size of a KMV record for a key of
// klen bytes holding nvals values totalling valBytes raw bytes.
func (c *KMVC) recordSize(klen, nvals, valBytes int) int {
	n := c.hint.Key.headerSize() + 4 + c.hint.Key.dataSize(klen)
	n += nvals*c.hint.Val.headerSize() + valBytes
	if c.hint.Val.kind == kindStrZ {
		n += nvals // one NUL per value
	}
	return n
}

// NewRecord reserves a record for key with exactly nvals values totalling
// valBytes raw bytes, writes the header, and returns the record id used by
// AppendValue. This is pass one of the paper's convert: "the size of the
// KVs for each unique key is ... used to calculate the position of each KMV
// in the KMVC."
func (c *KMVC) NewRecord(key []byte, nvals, valBytes int) (int, error) {
	if err := c.hint.Key.check("key", key); err != nil {
		return 0, err
	}
	size := c.recordSize(len(key), nvals, valBytes)
	r, err := c.buf.reserve(size)
	if err != nil {
		return 0, err
	}
	if err := c.buf.reserveMeta(kmvMetaBytes); err != nil {
		return 0, err
	}
	buf := c.buf.at(r, size)
	pos := 0
	if c.hint.Key.IsVarlen() {
		binary.LittleEndian.PutUint32(buf[pos:], uint32(len(key)))
		pos += 4
	}
	binary.LittleEndian.PutUint32(buf[pos:], uint32(nvals))
	pos += 4
	pos += copy(buf[pos:], key)
	if c.hint.Key.kind == kindStrZ {
		buf[pos] = 0
		pos++
	}
	c.recs = append(c.recs, kmvRec{r: r, size: size, keyLen: len(key), nvals: nvals, cursor: pos})
	return len(c.recs) - 1, nil
}

// AppendValue writes the next value into record id (pass two of convert).
// The write lands on whatever page holds the record — typically a sealed
// one — so with a PageStore attached the page is pinned (restoring it if
// convert pass 2 finds it spilled) and marked dirty around the scatter;
// without one every page is resident and the value is written directly.
func (c *KMVC) AppendValue(id int, v []byte) error {
	if id < 0 || id >= len(c.recs) {
		return fmt.Errorf("kvbuf: bad KMV record id %d", id)
	}
	rec := &c.recs[id]
	if rec.written >= rec.nvals {
		return fmt.Errorf("kvbuf: KMV record %d already holds its %d declared values", id, rec.nvals)
	}
	if err := c.hint.Val.check("value", v); err != nil {
		return err
	}
	if c.buf.store == nil {
		return c.putValue(id, rec, v)
	}
	page := rec.r.page()
	if _, err := c.buf.pinPage(page); err != nil {
		return err
	}
	err := c.putValue(id, rec, v)
	c.buf.markDirty(page)
	c.buf.unpinPage(page)
	return err
}

// putValue encodes v at rec's cursor; the record's page must be resident.
func (c *KMVC) putValue(id int, rec *kmvRec, v []byte) error {
	buf := c.buf.at(rec.r, rec.size)
	pos := rec.cursor
	need := c.hint.Val.headerSize() + c.hint.Val.dataSize(len(v))
	if pos+need > rec.size {
		return fmt.Errorf("kvbuf: KMV record %d overflow: value of %d bytes exceeds reserved space", id, len(v))
	}
	if c.hint.Val.IsVarlen() {
		binary.LittleEndian.PutUint32(buf[pos:], uint32(len(v)))
		pos += 4
	}
	pos += copy(buf[pos:], v)
	if c.hint.Val.kind == kindStrZ {
		buf[pos] = 0
		pos++
	}
	rec.cursor = pos
	rec.written++
	return nil
}

// NumKMV returns the number of records.
func (c *KMVC) NumKMV() int { return len(c.recs) }

// Bytes returns the payload bytes stored.
func (c *KMVC) Bytes() int64 { return c.buf.usedBytes() }

// ReservedBytes returns the arena reservation held (pages + metadata).
func (c *KMVC) ReservedBytes() int64 {
	return c.buf.reservedBytes() + int64(len(c.recs))*kmvMetaBytes
}

// Scan calls fn for every record in creation order with the key and an
// iterator over its values. Slices alias container memory, and the
// iterator is reused for the next record: neither may be kept after fn
// returns.
func (c *KMVC) Scan(fn func(key []byte, vals *ValueIter) error) error {
	return c.ScanRange(0, len(c.recs), fn)
}

// ScanRange is Scan restricted to records [lo, hi), clamped to the record
// count. Without a PageStore attached, concurrent ScanRange calls over
// disjoint ranges are safe (pinning is a no-op and every read is confined
// to the range's records), which is what lets the reduce phase run record
// shards on a worker pool.
func (c *KMVC) ScanRange(lo, hi int, fn func(key []byte, vals *ValueIter) error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > len(c.recs) {
		hi = len(c.recs)
	}
	it := &ValueIter{} // one per call, reset per record: fn must not keep it
	for i := lo; i < hi; i++ {
		rec := &c.recs[i]
		if rec.written != rec.nvals {
			return fmt.Errorf("kvbuf: KMV record %d incomplete: %d of %d values", i, rec.written, rec.nvals)
		}
		// Records never straddle pages, so pinning the record's page keeps
		// the key and every value resident for the callback. Reduce thereby
		// streams spilled records back page by page.
		if _, err := c.buf.pinPage(rec.r.page()); err != nil {
			return err
		}
		buf := c.buf.at(rec.r, rec.size)
		pos := c.hint.Key.headerSize() + 4
		key := buf[pos : pos+rec.keyLen]
		pos += c.hint.Key.dataSize(rec.keyLen)
		*it = ValueIter{buf: buf[pos:], n: rec.nvals, mode: c.hint.Val}
		err := fn(key, it)
		c.buf.unpinPage(rec.r.page())
		if err != nil {
			return err
		}
	}
	return nil
}

// Free releases all pages and metadata back to the arena.
func (c *KMVC) Free() {
	c.buf.free()
	c.arena.Free(int64(len(c.recs)) * kmvMetaBytes)
	c.recs = nil
}

// NewValueIter returns an iterator over n values encoded back to back in
// buf under the given length mode. It is used by consumers that hold raw
// KMV bytes outside a KMVC (e.g. MR-MPI's page-based KMV store).
func NewValueIter(buf []byte, n int, mode LenMode) *ValueIter {
	return &ValueIter{buf: buf, n: n, mode: mode}
}

// ValueIter iterates the values of one KMV record.
type ValueIter struct {
	buf  []byte
	n    int
	mode LenMode
	pos  int
	i    int
}

// Len returns the total number of values.
func (it *ValueIter) Len() int { return it.n }

// Next returns the next value, or (nil, false) when exhausted. The slice
// aliases container memory.
func (it *ValueIter) Next() ([]byte, bool) {
	if it.i >= it.n {
		return nil, false
	}
	var v []byte
	switch it.mode.kind {
	case kindVarlen:
		vlen := int(binary.LittleEndian.Uint32(it.buf[it.pos:]))
		it.pos += 4
		v = it.buf[it.pos : it.pos+vlen]
		it.pos += vlen
	case kindFixed:
		v = it.buf[it.pos : it.pos+it.mode.n]
		it.pos += it.mode.n
	case kindStrZ:
		start := it.pos
		for it.buf[it.pos] != 0 {
			it.pos++
		}
		v = it.buf[start:it.pos]
		it.pos++ // NUL
	}
	it.i++
	return v, true
}

// Reset rewinds the iterator to the first value.
func (it *ValueIter) Reset() { it.pos, it.i = 0, 0 }
