package kvbuf

import (
	"encoding/binary"
	"fmt"
	"sync"

	"mimir/internal/mem"
)

// Convert turns a KV container into a KMV container with the paper's
// two-pass algorithm (Section III-A):
//
//	pass 1: scan the KVs, gathering per-unique-key value count and total
//	        value bytes in a hash bucket, then reserve every KMV record at
//	        its exact final size and position;
//	pass 2: scan the KVs again, scattering each value into its record.
//
// The input container is drained during pass 2, releasing its pages as they
// are consumed. Every KMV record is reserved before pass 2 starts, though,
// so pass 2 begins at input + output + index and only falls from there:
// that sum, not max(input, output) + index, is convert's peak. Reserving
// each record's pages only as pass 2 reaches them would bring it down to
// max(input, output) + index.
func Convert(in *KVC, arena *mem.Arena, pageSize int, hint Hint) (*KMVC, error) {
	return ConvertOn(nil, in, arena, pageSize, hint)
}

// ConvertOn is Convert with the output KMVC's pages registered on a
// PageStore for out-of-core eviction. Both passes stream: pass 1 pins the
// (possibly spilled) input pages one at a time while counting, pass 2
// drains the input while scattering values into pinned output pages, so
// residency never doubles even when both containers exceed the watermark.
// The per-key index bucket stays purely in-memory — it is random-access on
// every KV and must live in the arena headroom above the watermark.
//
// Each KV costs one bucket probe per pass. Pass 1 finds the key's entry and
// bumps its stat in place; records are then reserved by walking the entries
// in insertion order, so a key's record id is its entry index and pass 2 is
// a probe straight into AppendValue.
func ConvertOn(store PageStore, in *KVC, arena *mem.Arena, pageSize int, hint Hint) (*KMVC, error) {
	idx, err := NewBucketOn(store, arena, pageSize)
	if err != nil {
		return nil, err
	}
	defer idx.Free()

	// Pass 1: per-key statistics.
	err = in.Scan(func(k, v []byte) error {
		_, err := idx.tally(slotHash(k), k, len(v))
		return err
	})
	if err != nil {
		return nil, err
	}

	// Reserve all records in first-appearance order (deterministic output).
	out := NewKMVCOn(store, arena, pageSize, hint)
	for i := 0; i < idx.Len(); i++ {
		k, st := idx.Entry(i)
		if _, err := out.NewRecord(k, statCount(st), statValBytes(st)); err != nil {
			out.Free()
			return nil, err
		}
	}

	// Pass 2: scatter values; drain the input as its pages are consumed.
	err = in.Drain(func(k, v []byte) error {
		i := idx.find(slotHash(k), k)
		if i < 0 {
			return errUnindexed(k)
		}
		return out.AppendValue(int(i), v)
	})
	if err != nil {
		out.Free()
		return nil, err
	}
	return out, nil
}

// The index bucket's value for one unique key is a fixed 12-byte stat,
// [count uint32][valBytes uint32][recID uint32]. recID is written only by
// ConvertParallel, whose records are reserved in the shards' merged order
// rather than any one shard's entry order.
const statBytes = 12

func statCount(st []byte) int    { return int(binary.LittleEndian.Uint32(st[0:])) }
func statValBytes(st []byte) int { return int(binary.LittleEndian.Uint32(st[4:])) }
func statRecID(st []byte) int    { return int(binary.LittleEndian.Uint32(st[8:])) }

// tally is convert's pass-1 step: it counts one more value of vlen bytes
// under k (h must be slotHash(k)), bumping the key's stat in place or
// inserting a fresh one, and reports whether the key was new.
func (b *Bucket) tally(h uint64, k []byte, vlen int) (fresh bool, err error) {
	if i := b.find(h, k); i >= 0 {
		st := b.value(i)
		binary.LittleEndian.PutUint32(st[0:], binary.LittleEndian.Uint32(st[0:])+1)
		binary.LittleEndian.PutUint32(st[4:], binary.LittleEndian.Uint32(st[4:])+uint32(vlen))
		return false, nil
	}
	var st [statBytes]byte
	binary.LittleEndian.PutUint32(st[0:], 1)
	binary.LittleEndian.PutUint32(st[4:], uint32(vlen))
	err = b.insert(h, k, st[:])
	return err == nil, err
}

func errUnindexed(k []byte) error {
	return fmt.Errorf("kvbuf: convert pass 2 found unindexed key %q", k)
}

// ConvertParallel is Convert with both passes sharded across a worker pool.
// Keys are partitioned by hash into one shard per worker; every worker
// decodes the full input stream (a cheap sequential scan) and processes
// only its shard's KVs, so no two workers ever touch the same index entry
// or the same KMV record. The record reservation between the passes stays
// serial over the sharded index's sequence-merged scan, which reproduces
// the single-bucket first-appearance order — the output KMVC is therefore
// byte-identical to Convert's, record ids included.
//
// Pass 2 keeps Convert's drain property: each input page is released the
// moment every worker has scattered its shard's values out of it, so peak
// memory stays max(input, output) + index rather than their sum.
//
// The input container must not be registered on a PageStore (parallel
// container phases are the purely in-memory execution mode; the caller
// falls back to ConvertOn otherwise). The returned slice holds the per-
// worker key+value bytes processed, for max-over-workers time accounting.
func ConvertParallel(in *KVC, arena *mem.Arena, pageSize int, hint Hint, workers int) (*KMVC, []int64, error) {
	if workers < 1 {
		workers = 1
	}
	idx, err := NewShardedBucket(arena, pageSize, workers)
	if err != nil {
		return nil, nil, err
	}
	defer idx.Free()

	// Pass 1: per-key statistics, sharded.
	work := make([]int64, workers)
	if err := parallelShards(workers, func(w int) error {
		var seq uint64
		return in.Scan(func(k, v []byte) error {
			cur := seq
			seq++
			h := slotHash(k)
			if shardOf(h, workers) != w {
				return nil
			}
			work[w] += int64(len(k) + len(v))
			return idx.tally(w, cur, h, k, len(v))
		})
	}); err != nil {
		return nil, nil, err
	}

	// Reserve all records serially in merged first-appearance order, leaving
	// each key's record id in its stat.
	out := NewKMVC(arena, pageSize, hint)
	err = idx.Scan(func(k, st []byte) error {
		id, err := out.NewRecord(k, statCount(st), statValBytes(st))
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(st[8:], uint32(id))
		return nil
	})
	if err != nil {
		out.Free()
		return nil, nil, err
	}

	// Pass 2: scatter values page by page. All workers finish a page before
	// it is freed, mirroring Drain's early release; the container is empty
	// afterwards, even on error.
	npages := in.buf.numPages()
	in.nkv = 0
	var firstErr error
	for i := 0; i < npages; i++ {
		if firstErr == nil {
			p, err := in.buf.pinPage(i)
			if err != nil {
				firstErr = err
			} else {
				err := parallelShards(workers, func(w int) error {
					shard := idx.shards[w]
					return in.scanPage(p, func(k, v []byte) error {
						h := slotHash(k)
						if shardOf(h, workers) != w {
							return nil
						}
						e := shard.find(h, k)
						if e < 0 {
							return errUnindexed(k)
						}
						return out.AppendValue(statRecID(shard.value(e)), v)
					})
				})
				in.buf.unpinPage(i)
				if err != nil {
					firstErr = err
				}
			}
		}
		in.buf.freePage(i)
	}
	in.buf.clear()
	if firstErr != nil {
		out.Free()
		return nil, nil, firstErr
	}
	return out, work, nil
}

// parallelShards runs fn(w) for every shard worker concurrently and returns
// the lowest-numbered worker's error, so a multi-worker failure reports the
// same error on every run regardless of goroutine scheduling.
func parallelShards(workers int, fn func(w int) error) error {
	if workers == 1 {
		return fn(0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
