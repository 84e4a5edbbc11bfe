package kvbuf

import (
	"encoding/binary"
	"fmt"

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
		return idx.tally(slotHash(k), k, len(v))
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

// The index bucket's value for one unique key is a fixed 8-byte stat,
// [count uint32][valBytes uint32].
const statBytes = 8

func statCount(st []byte) int    { return int(binary.LittleEndian.Uint32(st[0:])) }
func statValBytes(st []byte) int { return int(binary.LittleEndian.Uint32(st[4:])) }

// tally is convert's pass-1 step: it counts one more value of vlen bytes
// under k (h must be slotHash(k)), bumping the key's stat in place or
// inserting a fresh one.
func (b *Bucket) tally(h uint64, k []byte, vlen int) error {
	if i := b.find(h, k); i >= 0 {
		st := b.value(i)
		binary.LittleEndian.PutUint32(st[0:], binary.LittleEndian.Uint32(st[0:])+1)
		binary.LittleEndian.PutUint32(st[4:], binary.LittleEndian.Uint32(st[4:])+uint32(vlen))
		return nil
	}
	var st [statBytes]byte
	binary.LittleEndian.PutUint32(st[0:], 1)
	binary.LittleEndian.PutUint32(st[4:], uint32(vlen))
	return b.insert(h, k, st[:])
}

func errUnindexed(k []byte) error {
	return fmt.Errorf("kvbuf: convert pass 2 found unindexed key %q", k)
}
