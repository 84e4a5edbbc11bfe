package kvbuf

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mimir/internal/mem"
)

// shardMerge is the merge used by the shard determinism tests: same-length
// pairs are folded byte-wise (exercising the bucket's in-place replacement),
// different lengths concatenate (exercising relocation + garbage).
func shardMerge(existing, incoming []byte) ([]byte, error) {
	if len(existing) == len(incoming) {
		for i := range existing {
			existing[i] += incoming[i]
		}
		return existing, nil
	}
	merged := append(append([]byte{}, existing...), incoming...)
	if len(merged) > 32 {
		merged = merged[:32]
	}
	return merged, nil
}

// feedSharded replays stream into a sharded bucket exactly the way the
// engine's workers do: every worker walks the full stream with a global
// sequence counter and upserts only its own shard's keys.
func feedSharded(t testing.TB, sb *ShardedBucket, stream [][2][]byte) {
	t.Helper()
	for w := 0; w < sb.NumShards(); w++ {
		var seq uint64
		for _, kv := range stream {
			cur := seq
			seq++
			if sb.ShardOf(kv[0]) != w {
				continue
			}
			if err := sb.Upsert(w, cur, kv[0], kv[1], shardMerge); err != nil {
				t.Fatalf("sharded upsert(%q): %v", kv[0], err)
			}
		}
	}
}

func collectBucket(t testing.TB, scan func(func(k, v []byte) error) error) [][2]string {
	t.Helper()
	var out [][2]string
	if err := scan(func(k, v []byte) error {
		out = append(out, [2]string{string(k), string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedBucketMatchesSerial pins the core contract: for any worker
// count, the sequence-merged scan equals a single serial bucket's insertion
// order, entry for entry and byte for byte.
func TestShardedBucketMatchesSerial(t *testing.T) {
	stream := make([][2][]byte, 0, 400)
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("key-%d", i%97))
		v := []byte(fmt.Sprintf("val-%d", i%13))
		stream = append(stream, [2][]byte{k, v})
	}

	arena := mem.NewArena(0)
	ref, err := NewBucket(arena, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range stream {
		if err := ref.Upsert(kv[0], kv[1], shardMerge); err != nil {
			t.Fatal(err)
		}
	}
	want := collectBucket(t, ref.Scan)

	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sb, err := NewShardedBucket(arena, 512, workers)
			if err != nil {
				t.Fatal(err)
			}
			defer sb.Free()
			feedSharded(t, sb, stream)
			if sb.Len() != ref.Len() {
				t.Fatalf("sharded Len %d, serial %d", sb.Len(), ref.Len())
			}
			got := collectBucket(t, sb.Scan)
			if len(got) != len(want) {
				t.Fatalf("sharded scan yields %d entries, serial %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entry %d: sharded (%q, %q), serial (%q, %q)",
						i, got[i][0], got[i][1], want[i][0], want[i][1])
				}
			}
			for _, kv := range stream[:50] {
				sv, ok := sb.Get(kv[0])
				rv, rok := ref.Get(kv[0])
				if ok != rok || !bytes.Equal(sv, rv) {
					t.Fatalf("Get(%q): sharded (%q, %v), serial (%q, %v)", kv[0], sv, ok, rv, rok)
				}
			}
		})
	}

	ref.Free()
	used := arena.Used()
	if used != 0 {
		t.Fatalf("arena holds %d bytes after Free (leak)", used)
	}
}

// TestConvertParallelMatchesSerial proves the sharded two-pass convert
// produces the identical KMV container as the serial algorithm — same
// record order, same per-record value order, same payload bytes — for
// several worker counts and page sizes.
func TestConvertParallelMatchesSerial(t *testing.T) {
	type rec struct {
		key  string
		vals []string
	}
	collect := func(kmv *KMVC) []rec {
		var out []rec
		if err := kmv.Scan(func(key []byte, vals *ValueIter) error {
			r := rec{key: string(key)}
			for v, ok := vals.Next(); ok; v, ok = vals.Next() {
				r.vals = append(r.vals, string(v))
			}
			out = append(out, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	build := func(arena *mem.Arena, pageSize int) *KVC {
		kvc := NewKVC(arena, pageSize, DefaultHint())
		for i := 0; i < 500; i++ {
			k := []byte(fmt.Sprintf("w%d", i%83))
			v := []byte(fmt.Sprintf("value-%d", i))
			if err := kvc.Append(k, v); err != nil {
				t.Fatal(err)
			}
		}
		return kvc
	}

	for _, pageSize := range []int{256, 4096} {
		arena := mem.NewArena(0)
		in := build(arena, pageSize)
		ref, err := Convert(in, arena, pageSize, DefaultHint())
		if err != nil {
			t.Fatal(err)
		}
		want := collect(ref)
		wantBytes := ref.Bytes()

		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("page=%d/workers=%d", pageSize, workers), func(t *testing.T) {
				in := build(arena, pageSize)
				kmv, work, err := ConvertParallel(in, arena, pageSize, DefaultHint(), workers)
				if err != nil {
					t.Fatal(err)
				}
				defer kmv.Free()
				if len(work) != workers {
					t.Fatalf("work slice has %d entries, want %d", len(work), workers)
				}
				var total int64
				for _, wb := range work {
					total += wb
				}
				if total == 0 {
					t.Fatal("per-worker work accounting is empty")
				}
				if kmv.NumKMV() != ref.NumKMV() || kmv.Bytes() != wantBytes {
					t.Fatalf("parallel KMV: %d records / %d bytes, serial %d / %d",
						kmv.NumKMV(), kmv.Bytes(), ref.NumKMV(), wantBytes)
				}
				got := collect(kmv)
				for i := range want {
					if got[i].key != want[i].key {
						t.Fatalf("record %d key %q, serial %q", i, got[i].key, want[i].key)
					}
					for j := range want[i].vals {
						if got[i].vals[j] != want[i].vals[j] {
							t.Fatalf("record %d value %d: %q, serial %q", i, j, got[i].vals[j], want[i].vals[j])
						}
					}
				}
			})
		}
		ref.Free()
		if arena.Used() != 0 {
			t.Fatalf("page=%d: arena holds %d bytes (leak)", pageSize, arena.Used())
		}
	}
}

// FuzzShardMerge feeds arbitrary KV streams through the sharded bucket and
// the sharded convert, checking both against their serial references for
// exact ordering and KMV sizing, and both buckets' drains against the scan.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte("the quick brown fox the lazy dog the end"), uint8(4))
	f.Add([]byte("aaaa bb c dddddd bb aaaa"), uint8(2))
	f.Add([]byte{1, 2, 3, 0, 255, 254, 0, 9, 17, 17, 17, 3, 3}, uint8(7))
	f.Add([]byte(""), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, rawWorkers uint8) {
		workers := int(rawWorkers)%8 + 1
		// Slice the fuzz input into a KV stream (keys 1..8 bytes, values
		// 0..8 bytes) — duplicates across the stream are what exercise the
		// merge order.
		var stream [][2][]byte
		for pos := 0; pos+2 <= len(data) && len(stream) < 64; {
			klen := int(data[pos]%8) + 1
			vlen := int(data[pos+1] % 8)
			pos += 2
			if pos+klen+vlen > len(data) {
				break
			}
			stream = append(stream, [2][]byte{
				append([]byte{}, data[pos:pos+klen]...),
				append([]byte{}, data[pos+klen:pos+klen+vlen]...),
			})
			pos += klen + vlen
		}

		arena := mem.NewArena(0)

		// Bucket order equivalence.
		ref, err := NewBucket(arena, 256)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range stream {
			if err := ref.Upsert(kv[0], kv[1], shardMerge); err != nil {
				t.Fatal(err)
			}
		}
		sb, err := NewShardedBucket(arena, 256, workers)
		if err != nil {
			t.Fatal(err)
		}
		feedSharded(t, sb, stream)
		want := collectBucket(t, ref.Scan)
		got := collectBucket(t, sb.Scan)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: sharded scan yields %d entries, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d entry %d: sharded (%q, %q), serial (%q, %q)",
					workers, i, got[i][0], got[i][1], want[i][0], want[i][1])
			}
		}
		// Draining either bucket yields the scanned sequence — under release
		// scribbling, so a page freed too early shows as wrong bytes — and
		// frees it.
		mem.DebugPool(true)
		drainedRef := collectBucket(t, ref.Drain)
		drainedSharded := collectBucket(t, sb.Drain)
		mem.DebugPool(false)
		if !slices.Equal(drainedRef, want) || !slices.Equal(drainedSharded, want) {
			t.Fatalf("workers=%d: a drain diverges from the scan", workers)
		}
		if arena.Used() != 0 {
			t.Fatalf("arena holds %d bytes after the drains (leak)", arena.Used())
		}

		// Convert equivalence: exact record order, value order, and sizing.
		hint := Hint{Key: Varlen(), Val: Varlen()}
		load := func() *KVC {
			kvc := NewKVC(arena, 256, hint)
			for _, kv := range stream {
				if err := kvc.Append(kv[0], kv[1]); err != nil {
					t.Fatal(err)
				}
			}
			return kvc
		}
		serial, err := Convert(load(), arena, 256, hint)
		if err != nil {
			t.Fatal(err)
		}
		parallel, _, err := ConvertParallel(load(), arena, 256, hint, workers)
		if err != nil {
			t.Fatal(err)
		}
		if parallel.NumKMV() != serial.NumKMV() || parallel.Bytes() != serial.Bytes() {
			t.Fatalf("workers=%d: parallel KMV %d records / %d bytes, serial %d / %d",
				workers, parallel.NumKMV(), parallel.Bytes(), serial.NumKMV(), serial.Bytes())
		}
		type entry struct{ key, vals string }
		flatten := func(c *KMVC) []entry {
			var out []entry
			if err := c.Scan(func(key []byte, vals *ValueIter) error {
				e := entry{key: string(key)}
				for v, ok := vals.Next(); ok; v, ok = vals.Next() {
					e.vals += fmt.Sprintf("%d:%q,", len(v), v)
				}
				out = append(out, e)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		se, pe := flatten(serial), flatten(parallel)
		for i := range se {
			if se[i] != pe[i] {
				t.Fatalf("workers=%d KMV record %d: parallel %+v, serial %+v", workers, i, pe[i], se[i])
			}
		}
		serial.Free()
		parallel.Free()
		if arena.Used() != 0 {
			t.Fatalf("arena holds %d bytes after Free (leak)", arena.Used())
		}
	})
}

// TestShardBalanceUnderRankResidue: every key a rank holds has the same
// HashKey residue modulo the rank count, so a shard index taken from
// HashKey itself puts all of them in one shard whenever the shard count
// divides the rank count — and the worker pool runs on one worker.
func TestShardBalanceUnderRankResidue(t *testing.T) {
	keys := residueKeys(1<<13, 3, 8)
	for _, shards := range []int{2, 4, 8} {
		sb, err := NewShardedBucket(mem.NewArena(0), 64<<10, shards)
		if err != nil {
			t.Fatal(err)
		}
		held := make([]int, shards)
		for _, k := range keys {
			held[sb.ShardOf(k)]++
		}
		sb.Free()
		mean := float64(len(keys)) / float64(shards)
		for s, n := range held {
			if f := float64(n); f < 0.75*mean || f > 1.25*mean {
				t.Errorf("%d shards: shard %d holds %d of %d keys, want within 25%% of %.0f", shards, s, n, len(keys), mean)
			}
		}
	}
}
