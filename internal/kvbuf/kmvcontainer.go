package kvbuf

import (
	"bytes"
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
//
// Every page is PageSize. A record larger than a page spans a run of
// ordinary pages (MR-MPI's multi-block KMV) and is written and read a page
// at a time: its key and values may cross page boundaries, and at most one
// of its pages is pinned at once. So on a PageStore no record ever needs to
// be resident in full — a hot key's value list can exceed everything the
// node has left above the pinned and unevictable bytes.
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
	span := c.spans(size)
	var r ref
	var err error
	if span {
		r, err = c.buf.reserveSpan(size)
	} else {
		r, err = c.buf.reserve(size)
	}
	if err != nil {
		return 0, err
	}
	if err := c.buf.reserveMeta(kmvMetaBytes); err != nil {
		return 0, err
	}
	hlen := c.hint.Key.headerSize() + 4 + c.hint.Key.dataSize(len(key))
	var hdr []byte
	if span {
		hdr = make([]byte, hlen)
	} else {
		hdr = c.buf.at(r, hlen)
	}
	pos := 0
	if c.hint.Key.IsVarlen() {
		binary.LittleEndian.PutUint32(hdr[pos:], uint32(len(key)))
		pos += 4
	}
	binary.LittleEndian.PutUint32(hdr[pos:], uint32(nvals))
	pos += 4
	pos += copy(hdr[pos:], key)
	if c.hint.Key.kind == kindStrZ {
		hdr[pos] = 0
	}
	if span {
		if err := c.writeSpan(r, 0, hdr); err != nil {
			return 0, err
		}
	}
	c.recs = append(c.recs, kmvRec{r: r, size: size, keyLen: len(key), nvals: nvals, cursor: hlen})
	return len(c.recs) - 1, nil
}

// spans reports whether a record of size bytes runs across pages.
func (c *KMVC) spans(size int) bool { return size > c.buf.pageSize }

// writeSpan copies b to offset pos of the spanning record at r, pinning
// and dirtying each page it touches in turn.
func (c *KMVC) writeSpan(r ref, pos int, b []byte) error {
	ps := c.buf.pageSize
	for len(b) > 0 {
		pg, off := r.page()+pos/ps, pos%ps
		p, err := c.buf.pinPage(pg)
		if err != nil {
			return err
		}
		n := copy(p.Buf[off:ps], b)
		c.buf.markDirty(pg)
		c.buf.unpinPage(pg)
		b, pos = b[n:], pos+n
	}
	return nil
}

// AppendValue writes the next value into record id (pass two of convert).
// A spanning record is written a page at a time. Any other record's write
// lands on the one page that holds it — typically a sealed one — so with a
// PageStore attached the page is pinned (restoring it if convert pass 2
// finds it spilled) and marked dirty around the scatter; without one every
// page is resident and the value is written directly.
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
	if c.spans(rec.size) {
		return c.putSpanValue(id, rec, v)
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

// putSpanValue is putValue for a record that runs across pages.
func (c *KMVC) putSpanValue(id int, rec *kmvRec, v []byte) error {
	need := c.hint.Val.headerSize() + c.hint.Val.dataSize(len(v))
	if rec.cursor+need > rec.size {
		return fmt.Errorf("kvbuf: KMV record %d overflow: value of %d bytes exceeds reserved space", id, len(v))
	}
	pos := rec.cursor
	if c.hint.Val.IsVarlen() {
		var h [4]byte
		binary.LittleEndian.PutUint32(h[:], uint32(len(v)))
		if err := c.writeSpan(rec.r, pos, h[:]); err != nil {
			return err
		}
		pos += 4
	}
	if err := c.writeSpan(rec.r, pos, v); err != nil {
		return err
	}
	pos += len(v)
	if c.hint.Val.kind == kindStrZ {
		if err := c.writeSpan(rec.r, pos, []byte{0}); err != nil {
			return err
		}
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
	it := &ValueIter{} // one per call, reset per record: fn must not keep it
	var sr *spanReader
	for i := range c.recs {
		rec := &c.recs[i]
		if rec.written != rec.nvals {
			return fmt.Errorf("kvbuf: KMV record %d incomplete: %d of %d values", i, rec.written, rec.nvals)
		}
		if c.spans(rec.size) {
			if sr == nil {
				sr = &spanReader{buf: c.buf, pinned: -1}
			}
			if err := c.scanSpan(rec, it, sr, fn); err != nil {
				return err
			}
			continue
		}
		// Any other record sits on one page, so pinning that page keeps
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

// scanSpan hands fn one spanning record. The key is copied out, since it
// must outlive the page switches of the value scan.
func (c *KMVC) scanSpan(rec *kmvRec, it *ValueIter, sr *spanReader, fn func(key []byte, vals *ValueIter) error) error {
	sr.first, sr.base, sr.err = rec.r.page(), 0, nil
	hpos := c.hint.Key.headerSize() + 4
	sr.key = append(sr.key[:0], sr.read(hpos, rec.keyLen)...)
	if sr.err != nil {
		sr.release()
		return sr.err
	}
	key := sr.key
	sr.base = hpos + c.hint.Key.dataSize(rec.keyLen)
	*it = ValueIter{n: rec.nvals, mode: c.hint.Val, span: sr}
	err := fn(key, it)
	sr.release()
	if sr.err != nil {
		return sr.err
	}
	return err
}

// spanReader reads a record that runs across consecutive pages, holding at
// most one of them pinned. Bytes that cross a page boundary are copied into
// scratch, so a slice read returns is valid only until the next read. A
// failed pin is kept in err and ends the read.
type spanReader struct {
	buf     *pagedBuf
	first   int // the record's first page
	base    int // record offset that read position 0 maps to
	pinned  int // page held pinned, or -1
	page    *mem.Page
	key     []byte
	scratch []byte
	err     error
}

// pin makes pg the one pinned page.
func (sr *spanReader) pin(pg int) bool {
	if sr.pinned == pg {
		return true
	}
	sr.release()
	p, err := sr.buf.pinPage(pg)
	if err != nil {
		sr.err = err
		return false
	}
	sr.pinned, sr.page = pg, p
	return true
}

func (sr *spanReader) release() {
	if sr.pinned >= 0 {
		sr.buf.unpinPage(sr.pinned)
		sr.pinned, sr.page = -1, nil
	}
}

// read returns the n bytes at position pos, or nil after a failed pin.
func (sr *spanReader) read(pos, n int) []byte {
	if n == 0 {
		return []byte{}
	}
	ps := sr.buf.pageSize
	pos += sr.base
	pg, off := sr.first+pos/ps, pos%ps
	if off+n <= ps {
		if !sr.pin(pg) {
			return nil
		}
		return sr.page.Buf[off : off+n]
	}
	sr.scratch = sr.scratch[:0]
	for n > 0 {
		if !sr.pin(pg) {
			return nil
		}
		k := min(n, ps-off)
		sr.scratch = append(sr.scratch, sr.page.Buf[off:off+k]...)
		n -= k
		pg, off = pg+1, 0
	}
	return sr.scratch
}

// zeroAt returns the position of the first NUL at or after pos (pos after
// a failed pin).
func (sr *spanReader) zeroAt(pos int) int {
	ps := sr.buf.pageSize
	at := pos + sr.base
	for {
		pg, off := sr.first+at/ps, at%ps
		if !sr.pin(pg) {
			return pos
		}
		if i := bytes.IndexByte(sr.page.Buf[off:ps], 0); i >= 0 {
			return at + i - sr.base
		}
		at += ps - off
	}
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
	span *spanReader // set when the record runs across pages; buf is unused
}

// Len returns the total number of values.
func (it *ValueIter) Len() int { return it.n }

// Next returns the next value, or (nil, false) when exhausted. The slice
// aliases container memory; for a record that spans pages it is valid only
// until the next call.
func (it *ValueIter) Next() ([]byte, bool) {
	if it.i >= it.n {
		return nil, false
	}
	if it.span != nil {
		return it.nextSpan()
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

// nextSpan is Next for a record that spans pages. A failed pin ends the
// iteration; the scan that made the iterator reports it.
func (it *ValueIter) nextSpan() ([]byte, bool) {
	sr := it.span
	var n int
	switch it.mode.kind {
	case kindVarlen:
		if h := sr.read(it.pos, 4); sr.err == nil {
			n = int(binary.LittleEndian.Uint32(h))
		}
		it.pos += 4
	case kindFixed:
		n = it.mode.n
	case kindStrZ:
		n = sr.zeroAt(it.pos) - it.pos
	}
	var v []byte
	if sr.err == nil {
		v = sr.read(it.pos, n)
	}
	if sr.err != nil {
		it.i = it.n
		return nil, false
	}
	it.pos += n
	if it.mode.kind == kindStrZ {
		it.pos++ // NUL
	}
	it.i++
	return v, true
}

// Reset rewinds the iterator to the first value.
func (it *ValueIter) Reset() { it.pos, it.i = 0, 0 }
