package kvbuf

import (
	"fmt"

	"mimir/internal/mem"
)

// ShardedBucket partitions a Bucket's key space across independent shard
// buckets so concurrent workers can upsert disjoint shards without locks,
// while Scan replays the entries in exactly the insertion order a single
// serial Bucket would have produced. The contract that makes this work:
//
//   - a key always belongs to the shard ShardOf(k), and only that shard's
//     owning worker may Upsert it;
//   - every Upsert is tagged with the key's global sequence number — the
//     position in the serial KV stream of the KV that caused it;
//   - each shard remembers the sequence at which each of its keys first
//     appeared, and Scan merges the shards by that sequence.
//
// Because every worker walks the same KV stream in order (skipping keys of
// other shards), per-shard sequences are strictly increasing and the merge
// is a simple minimum-front scan. The sequence tables live in plain Go
// memory (8 bytes per unique key), deliberately outside the arena: they are
// scaffolding of the execution mode, not job data, and vanish with the
// bucket.
//
// Distinct shards may be operated concurrently; operations on one shard
// must be serialized by its owner. Scan and Get require all writers to have
// finished (synchronize via the worker join).
type ShardedBucket struct {
	shards []*Bucket
	seqs   [][]uint64 // per shard: first-appearance seq of entry i
}

// NewShardedBucket creates a bucket sharded nshards ways. The shards never
// spill and are not routed through a PageStore: sharded operation is the
// purely in-memory execution mode (the spill store serializes access and
// would defeat it).
func NewShardedBucket(arena *mem.Arena, pageSize, nshards int) (*ShardedBucket, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("kvbuf: sharded bucket needs >= 1 shards, got %d", nshards)
	}
	b := &ShardedBucket{
		shards: make([]*Bucket, nshards),
		seqs:   make([][]uint64, nshards),
	}
	for i := range b.shards {
		s, err := NewBucket(arena, pageSize)
		if err != nil {
			b.Free()
			return nil, err
		}
		b.shards[i] = s
	}
	return b, nil
}

// NumShards returns the shard count.
func (b *ShardedBucket) NumShards() int { return len(b.shards) }

// ShardOf returns the shard owning key k: shardOf over the high bits of
// slotHash, which neither the rank routing (HashKey % P) nor the shards'
// own chain index (slotHash's low bits) uses. Sharding by HashKey itself
// would put every key of a rank into one shard whenever the shard count
// divides the rank count.
func (b *ShardedBucket) ShardOf(k []byte) int {
	return shardOf(slotHash(k), len(b.shards))
}

// Upsert merges (k, v) into shard (which must equal ShardOf(k)), recording
// seq if the key is new. Only the shard's owning worker may call this.
func (b *ShardedBucket) Upsert(shard int, seq uint64, k, v []byte, merge func(existing, incoming []byte) ([]byte, error)) error {
	s := b.shards[shard]
	before := s.Len()
	if err := s.Upsert(k, v, merge); err != nil {
		return err
	}
	if s.Len() > before {
		b.seqs[shard] = append(b.seqs[shard], seq)
	}
	return nil
}

// tally is Bucket.tally on shard (which must own h), recording seq if the
// key is new — convert's sharded pass-1 step, under Upsert's ownership rule.
func (b *ShardedBucket) tally(shard int, seq, h uint64, k []byte, vlen int) error {
	fresh, err := b.shards[shard].tally(h, k, vlen)
	if fresh {
		b.seqs[shard] = append(b.seqs[shard], seq)
	}
	return err
}

// Get returns the value stored for k. The slice aliases bucket memory.
func (b *ShardedBucket) Get(k []byte) ([]byte, bool) {
	return b.shards[b.ShardOf(k)].Get(k)
}

// Len returns the number of unique keys across all shards.
func (b *ShardedBucket) Len() int {
	n := 0
	for _, s := range b.shards {
		n += s.Len()
	}
	return n
}

// MemoryBytes returns the arena reservation attributable to the bucket.
func (b *ShardedBucket) MemoryBytes() int64 {
	var n int64
	for _, s := range b.shards {
		if s != nil {
			n += s.MemoryBytes()
		}
	}
	return n
}

// Scan calls fn for every (key, value) in global first-appearance order —
// the insertion order a single serial Bucket fed the same KV stream would
// have — by merging the shards on their recorded sequences. Slices alias
// bucket memory.
func (b *ShardedBucket) Scan(fn func(k, v []byte) error) error {
	return b.merge(func(s, i int) error {
		return fn(b.shards[s].Entry(i))
	})
}

// Drain is Scan that releases each shard's data pages behind that shard's
// own cursor (see Bucket.Drain), then frees the bucket, so a sharded drain
// peaks where a serial one does. The bucket is empty afterwards, even on
// error.
func (b *ShardedBucket) Drain(fn func(k, v []byte) error) error {
	defer b.Free()
	next := make([]int, len(b.shards))
	return b.merge(func(s, i int) error {
		b.shards[s].releaseBefore(i, &next[s])
		return fn(b.shards[s].Entry(i))
	})
}

// merge calls visit(shard, entry) for every entry in global first-appearance
// order: a minimum-front scan over the shards' recorded sequences.
func (b *ShardedBucket) merge(visit func(s, i int) error) error {
	cur := make([]int, len(b.shards))
	remaining := b.Len()
	for ; remaining > 0; remaining-- {
		best := -1
		var bestSeq uint64
		for s := range b.shards {
			if cur[s] >= len(b.seqs[s]) {
				continue
			}
			if seq := b.seqs[s][cur[s]]; best < 0 || seq < bestSeq {
				best, bestSeq = s, seq
			}
		}
		if best < 0 {
			return fmt.Errorf("kvbuf: sharded bucket scan lost entries (%d unscanned)", remaining)
		}
		cur[best]++
		if err := visit(best, cur[best]-1); err != nil {
			return err
		}
	}
	return nil
}

// Free releases all shards back to the arena. It is idempotent.
func (b *ShardedBucket) Free() {
	for i, s := range b.shards {
		if s != nil {
			s.Free()
			b.shards[i] = nil
		}
	}
	b.seqs = nil
}

// String summarizes the bucket for debugging.
func (b *ShardedBucket) String() string {
	return fmt.Sprintf("ShardedBucket{shards=%d keys=%d mem=%dB}", len(b.shards), b.Len(), b.MemoryBytes())
}
