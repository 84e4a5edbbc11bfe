package kvbuf

import (
	"bytes"
	"fmt"

	"mimir/internal/mem"
)

// bucketEntryBytes is the accounting charge per hash-bucket entry.
const bucketEntryBytes = 40

// headsPerCharged is how many chain heads the bucket keeps per charged one.
// The arena is charged bucketEntryBytes per entry and 4 bytes per head of a
// table of n heads that doubles when the entries reach 2n. A bucketEntry
// really takes 32 bytes, and the 8 it leaves pay for a second head per
// charged one: 4n more bytes against 8 per entry saved, covered from n/2
// entries on — always, once the table has grown, and from 32 entries under
// the initial 64 heads. Chains therefore hold 0.5–1 entries on average
// instead of 1–2 for the same charge.
const headsPerCharged = 2

// Bucket is the hash bucket used by the KV compression and partial
// reduction optimizations: it holds one KV per unique key and merges
// incoming duplicates via a user callback. Key/value bytes live in
// arena-charged pages; the entry table and chain heads are charged to the
// arena as estimates of their in-memory size, so enabling a combiner
// *costs* memory up front and only pays off past a compression-ratio
// threshold — a trade-off the paper calls out explicitly.
type Bucket struct {
	arena   *mem.Arena
	room    PageStore // optional eviction hook for arena charges
	data    *pagedBuf
	entries []bucketEntry
	heads   []int32
	// garbage counts dead value bytes left behind by size-changing updates.
	garbage int64
	// headCharged is the arena charge currently held for the heads table.
	headCharged int64
}

// bucketEntry locates one key's bytes and links its chain. tag is the low
// half of the key's slotHash: its low bits pick the chain head, and the
// whole of it filters chain walks so that a key comparison is almost
// always a match.
type bucketEntry struct {
	keyRef ref
	valRef ref
	keyLen int32
	valLen int32
	tag    uint32
	next   int32
}

const initialHeads = 64

// NewBucket creates an empty bucket whose storage pages come from arena.
func NewBucket(arena *mem.Arena, pageSize int) (*Bucket, error) {
	return NewBucketOn(nil, arena, pageSize)
}

// NewBucketOn creates a bucket whose arena charges are routed through a
// spill store's Reserve. The bucket itself never spills — it is
// random-access on every operation — but its growth can evict spillable
// container pages instead of failing, which keeps the out-of-core convert
// and combiner paths alive under pressure. A nil room is NewBucket.
func NewBucketOn(room PageStore, arena *mem.Arena, pageSize int) (*Bucket, error) {
	pb := newPagedBuf(arena, pageSize)
	pb.room = room
	b := &Bucket{arena: arena, room: room, data: pb}
	if err := b.setHeads(initialHeads); err != nil {
		return nil, err
	}
	return b, nil
}

// alloc charges n non-page bytes, evicting through the room store when one
// is attached. The matching release is always a plain Arena.Free.
func (b *Bucket) alloc(n int64) error {
	if b.room != nil {
		return b.room.Reserve(n)
	}
	return b.arena.Alloc(n)
}

// setHeads charges a heads table of n entries and rebuilds the chains over
// headsPerCharged*n heads.
func (b *Bucket) setHeads(n int) error {
	charge := int64(n) * 4
	if err := b.alloc(charge); err != nil {
		return err
	}
	if b.headCharged > 0 {
		b.arena.Free(b.headCharged)
	}
	b.headCharged = charge
	b.heads = make([]int32, headsPerCharged*n)
	for i := range b.heads {
		b.heads[i] = -1
	}
	mask := uint32(len(b.heads) - 1)
	for i := range b.entries {
		e := &b.entries[i]
		e.next = b.heads[e.tag&mask]
		b.heads[e.tag&mask] = int32(i)
	}
	return nil
}

// Len returns the number of unique keys.
func (b *Bucket) Len() int { return len(b.entries) }

// MemoryBytes returns the arena reservation attributable to the bucket.
func (b *Bucket) MemoryBytes() int64 {
	return b.data.reservedBytes() + int64(len(b.entries))*bucketEntryBytes + b.headCharged
}

// GarbageBytes returns dead bytes left by size-changing value updates.
func (b *Bucket) GarbageBytes() int64 { return b.garbage }

// find is the bucket's one probe: it returns the index of k's entry — its
// position in insertion order — or -1. h must be slotHash(k). Every other
// operation, and both passes of convert, are this probe plus a read or a
// write of the entry it names.
func (b *Bucket) find(h uint64, k []byte) int32 {
	tag := uint32(h)
	for i := b.heads[tag&uint32(len(b.heads)-1)]; i >= 0; {
		e := &b.entries[i]
		if e.tag == tag && int(e.keyLen) == len(k) &&
			bytes.Equal(b.data.at(e.keyRef, len(k)), k) {
			return i
		}
		i = e.next
	}
	return -1
}

// value returns entry i's value bytes, aliasing bucket memory.
func (b *Bucket) value(i int32) []byte {
	e := &b.entries[i]
	return b.data.at(e.valRef, int(e.valLen))
}

// Get returns the value stored for k. The slice aliases bucket memory.
func (b *Bucket) Get(k []byte) ([]byte, bool) {
	i := b.find(slotHash(k), k)
	if i < 0 {
		return nil, false
	}
	return b.value(i), true
}

// Put inserts (k, v), replacing any existing value. Same-length replacement
// is done in place; a different length appends new storage and leaves the
// old bytes as garbage.
func (b *Bucket) Put(k, v []byte) error {
	h := slotHash(k)
	if i := b.find(h, k); i >= 0 {
		return b.setValue(i, v)
	}
	return b.insert(h, k, v)
}

// Upsert merges v into the entry for k: if k is absent, (k, v) is inserted;
// otherwise merge(existing, v) produces the replacement value. This is the
// paper's combiner protocol — "the partial-reduction callback is called,
// which reduces these two KVs into a single KV. The existing KV in the hash
// bucket then is replaced with the reduced version." existing aliases the
// entry's own bytes, so a merge that writes its result there and returns it
// costs no copy and no allocation.
func (b *Bucket) Upsert(k, v []byte, merge func(existing, incoming []byte) ([]byte, error)) error {
	h := slotHash(k)
	i := b.find(h, k)
	if i < 0 {
		return b.insert(h, k, v)
	}
	merged, err := merge(b.value(i), v)
	if err != nil {
		return err
	}
	return b.setValue(i, merged)
}

// setValue replaces entry i's value. v may be the entry's own bytes.
func (b *Bucket) setValue(i int32, v []byte) error {
	e := &b.entries[i]
	if len(v) == int(e.valLen) {
		copy(b.data.at(e.valRef, len(v)), v)
		return nil
	}
	r, err := b.data.append(v)
	if err != nil {
		return err
	}
	b.garbage += int64(e.valLen)
	e.valRef = r
	e.valLen = int32(len(v))
	return nil
}

// insert appends a new entry for (k, v); h must be slotHash(k) and k absent.
// The new entry's index is Len()-1.
func (b *Bucket) insert(h uint64, k, v []byte) error {
	if charged := int(b.headCharged / 4); len(b.entries) >= 2*charged {
		if err := b.setHeads(2 * charged); err != nil {
			return err
		}
	}
	if err := b.alloc(bucketEntryBytes); err != nil {
		return err
	}
	kr, err := b.data.append(k)
	if err != nil {
		b.arena.Free(bucketEntryBytes)
		return err
	}
	vr, err := b.data.append(v)
	if err != nil {
		b.arena.Free(bucketEntryBytes)
		return err
	}
	tag := uint32(h)
	slot := tag & uint32(len(b.heads)-1)
	b.entries = append(b.entries, bucketEntry{
		keyRef: kr, valRef: vr,
		keyLen: int32(len(k)), valLen: int32(len(v)),
		tag: tag, next: b.heads[slot],
	})
	b.heads[slot] = int32(len(b.entries) - 1)
	return nil
}

// Entry returns the i'th entry in insertion order (0 <= i < Len). The
// slices alias bucket memory. It is the random-access counterpart of Scan,
// used by the sharded bucket's ordered merge.
func (b *Bucket) Entry(i int) (k, v []byte) {
	e := &b.entries[i]
	return b.data.at(e.keyRef, int(e.keyLen)), b.data.at(e.valRef, int(e.valLen))
}

// Scan calls fn for every (key, value) in insertion order, making iteration
// deterministic. Slices alias bucket memory.
func (b *Bucket) Scan(fn func(k, v []byte) error) error {
	for i := range b.entries {
		e := &b.entries[i]
		if err := fn(b.data.at(e.keyRef, int(e.keyLen)), b.data.at(e.valRef, int(e.valLen))); err != nil {
			return err
		}
	}
	return nil
}

// Drain is Scan that releases each data page as soon as the walk has passed
// every entry with bytes on it, then frees the bucket — "when the data is
// read (consumed), the KVC frees buffers that are no longer needed", applied
// to the combiner and partial-reduction buckets. The bucket is empty
// afterwards, even on error. Slices alias bucket memory and are valid only
// during the call.
func (b *Bucket) Drain(fn func(k, v []byte) error) error {
	defer b.Free()
	next := 0
	for i := range b.entries {
		b.releaseBefore(i, &next)
		k, v := b.Entry(i)
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// releaseBefore frees the data pages from *next up to (not including) entry
// i's key page and advances *next past them. Only entries before i have
// bytes there: an entry's key page never decreases with its index (keys are
// appended at insert), and its value lives on that page or a later one
// (insert appends the value after the key, and setValue relocations append
// at the end).
func (b *Bucket) releaseBefore(i int, next *int) {
	for p := b.entries[i].keyRef.page(); *next < p; *next++ {
		b.data.freePage(*next)
	}
}

// Free releases all storage back to the arena. It is idempotent.
func (b *Bucket) Free() {
	b.data.free()
	b.arena.Free(int64(len(b.entries)) * bucketEntryBytes)
	if b.headCharged > 0 {
		b.arena.Free(b.headCharged)
		b.headCharged = 0
	}
	b.entries = nil
	b.heads = nil
	b.garbage = 0
}

// String summarizes the bucket for debugging.
func (b *Bucket) String() string {
	return fmt.Sprintf("Bucket{keys=%d mem=%dB garbage=%dB}", b.Len(), b.MemoryBytes(), b.garbage)
}
