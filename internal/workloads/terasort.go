package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/partition"
	"mimir/internal/pfs"
)

// TeraSort is a distributed sample sort in the TeraSort mold, expressed as
// one map-only MapReduce stage on the sampling partitioner: the stage's
// early map output is the sample, the broadcast weighted range boundaries
// are the splitters, the exchange is the range exchange, and a local sort
// on each rank finishes the job. Because the sampled ranges assign rank r
// every key <= uppers[r] and > uppers[r-1], rank order equals key order:
// concatenating the per-rank sorted blocks in rank order IS the global
// sort, verifiable in O(n) (see VerifyTeraSort).

// Default TeraSort row geometry (the classic 10-byte key, 10-byte payload
// — at repo scale we keep the shape, not the 100-byte record).
const (
	DefaultTeraKeyBytes = 10
	DefaultTeraValBytes = 10
)

// TeraSortConfig describes one sort.
type TeraSortConfig struct {
	// Rows is the total row count across all ranks. Rows are generated by
	// global index (streamFor(seed, 0, i)), so the input multiset depends
	// only on (Seed, Rows) — never on the world size or worker count.
	Rows int64
	// KeyBytes / ValBytes set the row geometry (defaults 10/10).
	KeyBytes int
	ValBytes int
	Seed     uint64
}

func (c *TeraSortConfig) normalize() {
	if c.KeyBytes <= 0 {
		c.KeyBytes = DefaultTeraKeyBytes
	}
	if c.ValBytes <= 0 {
		c.ValBytes = DefaultTeraValBytes
	}
}

// TeraSortResult summarizes one rank's view of the sort.
type TeraSortResult struct {
	// Rows is the row count that landed on this rank after the range
	// exchange.
	Rows int64
	// Rounds is 1: the sort is a single-round MRC job (sample sort is the
	// Goodrich O(1)-round sorting construction).
	Rounds int
	Stats  StageStats
}

// TeraSortHint is the sort's KV-hint: fixed-width keys and payloads.
func TeraSortHint(cfg TeraSortConfig) kvbuf.Hint {
	cfg.normalize()
	return kvbuf.Hint{Key: kvbuf.Fixed(cfg.KeyBytes), Val: kvbuf.Fixed(cfg.ValBytes)}
}

// teraRow deterministically fills row i's key and payload from the dataset
// seed and the row's global index.
func teraRow(seed uint64, i int64, key, val []byte) {
	r := streamFor(seed, 0, i)
	for j := range key {
		key[j] = byte(r.next())
	}
	for j := range val {
		val[j] = byte(r.next())
	}
}

// teraShare is rank's [start, start+count) slice of the global row index
// space (first Rows%size ranks take one extra).
func teraShare(rows int64, rank, size int) (start, count int64) {
	share := rows / int64(size)
	rem := rows % int64(size)
	count = share
	if int64(rank) < rem {
		count++
	}
	start = share*int64(rank) + min64(int64(rank), rem)
	return start, count
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TeraSortInput regenerates this rank's share of the row stream.
func TeraSortInput(cfg TeraSortConfig, rank, size int) core.Input {
	cfg.normalize()
	start, count := teraShare(cfg.Rows, rank, size)
	return func(emit func(rec core.Record) error) error {
		key := make([]byte, cfg.KeyBytes)
		val := make([]byte, cfg.ValBytes)
		for i := int64(0); i < count; i++ {
			teraRow(cfg.Seed, start+i, key, val)
			if err := emit(core.Record{Key: key, Val: val}); err != nil {
				return err
			}
		}
		return nil
	}
}

// RunTeraSort executes the sort on the given engine and streams this rank's
// block — every row routed here by the range exchange, in sorted order — to
// sink. The sort requires the Mimir engine: it IS the sampled
// range-partitioner machinery, so the stage always runs on a
// partition.SamplePartitioner whatever the engine is otherwise configured
// with (MR-MPI hashes keys and cannot range-partition). Compression and
// partial reduction are forced off for the stage: duplicate keys are
// distinct rows and must survive to the output.
func RunTeraSort(e Engine, fs *pfs.FS, cfg TeraSortConfig, opts StageOpts,
	sink func(k, v []byte) error) (TeraSortResult, error) {
	var res TeraSortResult
	me, ok := e.(*MimirEngine)
	if !ok {
		return res, fmt.Errorf("workloads: terasort needs the Mimir engine's range partitioner (got %s)", e.Name())
	}
	cfg.normalize()
	comm := e.Comm()
	if fs != nil {
		_, count := teraShare(cfg.Rows, comm.Rank(), comm.Size())
		fs.ChargeRead(comm.Clock(), count*int64(cfg.KeyBytes+cfg.ValBytes))
	}

	// Sample sort is the sampled range partitioner; pin it for the stage so
	// rank order equals key-range order, then restore the engine.
	prev := me.Partitioner
	me.Partitioner = &partition.SamplePartitioner{}
	defer func() { me.Partitioner = prev }()

	sopts := opts
	sopts.Combiner = nil
	sopts.PartialReduce = nil

	// Rows collect into one flat block of fixed-width rows, which the local
	// sort then permutes in place (see radixSortRows): no index, so the
	// arena charge is the row itself. RunStage drains the stage's output
	// into the block, freeing each output page as soon as its rows are
	// copied, so the rank's peak is the block plus the shuffle's in-flight
	// pages, not the rows twice: TestArenaPeakPerKind holds it under
	// rows × 20 B + 256 KiB, and bench/'s peak_arena_bytes records it.
	arena := engineArena(e)
	rowLen := cfg.KeyBytes + cfg.ValBytes
	// The sampled ranges balance the ranks to within a few percent of the
	// even share; past the slack the block grows like any slice.
	_, share := teraShare(cfg.Rows, comm.Rank(), comm.Size())
	block := make([]byte, 0, (share+share/8)*int64(rowLen))
	charged := int64(0)
	defer func() {
		if arena != nil && charged > 0 {
			arena.Free(charged)
		}
	}()
	identity := func(rec core.Record, emit core.Emitter) error {
		return emit.Emit(rec.Key, rec.Val)
	}
	input := TeraSortInput(cfg, comm.Rank(), comm.Size())
	stats, err := e.RunStage(sopts, input, identity, nil, func(k, v []byte) error {
		if arena != nil {
			if err := arena.Alloc(int64(rowLen)); err != nil {
				return fmt.Errorf("workloads: collecting sort block: %w", err)
			}
			charged += int64(rowLen)
		}
		block = append(append(block, k...), v...)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Stats = stats
	res.Rounds = 1
	res.Rows = int64(len(block) / rowLen)

	// Local sort finishes the job. Rows compare as (key, payload) — the
	// fixed widths make whole-row bytes.Compare exactly that — so equal
	// keys still have one canonical order and the output is reproducible.
	radixSortRows(block, rowLen)
	if sink != nil {
		for off := 0; off < len(block); off += rowLen {
			row := block[off : off+rowLen]
			if err := sink(row[:cfg.KeyBytes], row[cfg.KeyBytes:]); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// insertionRows is the row count below which radixSortRows finishes a
// bucket by insertion sort: there a counting pass over 256 buckets costs
// more than the few row moves it saves.
const insertionRows = 32

// radixSortRows sorts block's rowLen-byte rows in place into bytes.Compare
// order over whole rows — the local phase of sample sort, which needs only
// the rows themselves (Goodrich et al., 1101.1902): an in-place MSD radix
// sort (American flag sort). For byte d it counts the rows per byte value,
// cycles the rows into their buckets through one scratch row, and sorts
// each bucket on byte d+1; the bytes every row of a bucket shares are
// skipped after one pass that finds them, and a bucket under insertionRows
// rows is finished by insertion sort. The sort is not stable, which no
// caller can see: rows that compare equal are equal bytes.
// (BenchmarkTeraLocalSort holds the index radix sort this replaced and a
// comparison sort next to it.)
func radixSortRows(block []byte, rowLen int) {
	if len(block) >= 2*rowLen {
		sortRowsFrom(block, rowLen, 0, make([]byte, rowLen))
	}
}

// sortRowsFrom sorts block's rows, which agree on their first d bytes, by
// the rest of each row; tmp is a rowLen-byte scratch row.
func sortRowsFrom(block []byte, rowLen, d int, tmp []byte) {
	n := len(block) / rowLen
	if n < insertionRows {
		insertionSortRows(block, rowLen, d, tmp)
		return
	}
	// Skip the bytes every row shares: one pass that narrows the prefix the
	// first row has in common with all the others.
	first := block[:rowLen]
	shared := rowLen
	for off := rowLen; off < len(block) && shared > d; off += rowLen {
		shared = d + commonPrefix(first[d:shared], block[off+d:off+shared])
	}
	if d = shared; d == rowLen {
		return // the rows are equal
	}
	var next, end [256]int // bucket b's unplaced rows are [next[b], end[b])
	for off := d; off < len(block); off += rowLen {
		next[block[off]]++
	}
	at := 0
	for b, rows := range next {
		next[b], at = at, at+rows
		end[b] = at
	}
	for b := range next {
		for i := next[b]; i < end[b]; i = next[b] {
			if block[i*rowLen+d] == byte(b) {
				next[b]++
				continue
			}
			// Row i belongs elsewhere: lift it out and follow the cycle,
			// each step dropping the held row into the first slot of its
			// bucket that holds a stranger and picking that stranger up,
			// until the held row belongs in bucket b, at slot i.
			hole := block[i*rowLen:][:rowLen]
			copy(tmp, hole)
			for v := tmp[d]; v != byte(b); v = tmp[d] {
				j := next[v]
				for block[j*rowLen+d] == v {
					j++ // a row already in its bucket
				}
				next[v] = j + 1
				swapRows(tmp, block[j*rowLen:][:rowLen])
			}
			copy(hole, tmp)
			next[b]++
		}
	}
	if d+1 == rowLen {
		return // each bucket's rows are equal
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			sortRowsFrom(block[lo*rowLen:hi*rowLen], rowLen, d+1, tmp)
		}
		lo = hi
	}
}

// commonPrefix is the length of the longest common prefix of a and b, which
// are the same length; it compares eight bytes at a time.
func commonPrefix(a, b []byte) int {
	b = b[:len(a)]
	k := 0
	for ; k+8 <= len(a); k += 8 {
		if binary.LittleEndian.Uint64(a[k:]) != binary.LittleEndian.Uint64(b[k:]) {
			break
		}
	}
	for k < len(a) && a[k] == b[k] {
		k++
	}
	return k
}

// swapRows exchanges the bytes of two rows of the same width, eight at a
// time.
func swapRows(a, b []byte) {
	b = b[:len(a)]
	k := 0
	for ; k+8 <= len(a); k += 8 {
		x, y := binary.LittleEndian.Uint64(a[k:]), binary.LittleEndian.Uint64(b[k:])
		binary.LittleEndian.PutUint64(a[k:], y)
		binary.LittleEndian.PutUint64(b[k:], x)
	}
	for ; k < len(a); k++ {
		a[k], b[k] = b[k], a[k]
	}
}

// insertionSortRows sorts block's rows, which agree on their first d bytes,
// by insertion: each row is compared from byte d against the sorted rows
// ahead of it and moved once, through tmp, to its place.
func insertionSortRows(block []byte, rowLen, d int, tmp []byte) {
	for i := rowLen; i < len(block); i += rowLen {
		rest := block[i+d : i+rowLen]
		j := i
		for j > 0 && bytes.Compare(block[j-rowLen+d:j], rest) > 0 {
			j -= rowLen
		}
		if j < i {
			copy(tmp, block[i:i+rowLen])
			copy(block[j+rowLen:i+rowLen], block[j:i])
			copy(block[j:j+rowLen], tmp)
		}
	}
}

// VerifyTeraSort is the sorted-output oracle: given every rank's output
// block (in rank order), it checks in one linear pass over the output plus
// one regeneration of the input that
//
//  1. each block is internally sorted (local sort correctness),
//  2. blocks are disjoint and ordered — the last key of rank r is strictly
//     below the first key of rank r+1, so every key lives on exactly one
//     rank and concatenation is globally sorted (splitter-boundary
//     invariant; equal keys may never straddle a boundary because a range
//     plan maps a key to one rank),
//  3. the output multiset equals the input multiset (nothing lost,
//     duplicated, or invented by sampling, routing, or spill).
//
// Blocks hold concatenated fixed-width rows as streamed by RunTeraSort.
func VerifyTeraSort(cfg TeraSortConfig, blocks [][]byte) error {
	cfg.normalize()
	rowLen := cfg.KeyBytes + cfg.ValBytes
	var prev []byte // last row seen, across block boundaries
	var prevBlock = -1
	var total int64
	for b, blk := range blocks {
		if len(blk)%rowLen != 0 {
			return fmt.Errorf("terasort: block %d is %d bytes, not a multiple of the %d-byte row", b, len(blk), rowLen)
		}
		for off := 0; off < len(blk); off += rowLen {
			row := blk[off : off+rowLen]
			if prev != nil {
				if c := bytes.Compare(prev, row); c > 0 {
					return fmt.Errorf("terasort: order violation in block %d at row %d", b, off/rowLen)
				}
				if prevBlock != b && bytes.Equal(prev[:cfg.KeyBytes], row[:cfg.KeyBytes]) {
					return fmt.Errorf("terasort: key %x straddles the block %d/%d boundary", row[:cfg.KeyBytes], prevBlock, b)
				}
			}
			prev = row
			prevBlock = b
			total++
		}
	}
	if total != cfg.Rows {
		return fmt.Errorf("terasort: output has %d rows, input had %d", total, cfg.Rows)
	}
	// Multiset equality: regenerate the input into one flat block, order
	// its rows by a comparison sort over row indices — independent of the
	// radix sort under test — and compare row for row against the (already
	// sorted) output.
	input := make([]byte, cfg.Rows*int64(rowLen))
	order := make([]int, cfg.Rows)
	for i := range order {
		row := input[i*rowLen:][:rowLen]
		teraRow(cfg.Seed, int64(i), row[:cfg.KeyBytes], row[cfg.KeyBytes:])
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return bytes.Compare(input[a*rowLen:][:rowLen], input[b*rowLen:][:rowLen])
	})
	i := 0
	for _, blk := range blocks {
		for off := 0; off < len(blk); off += rowLen {
			if !bytes.Equal(input[order[i]*rowLen:][:rowLen], blk[off:off+rowLen]) {
				return fmt.Errorf("terasort: row %d diverges from the input multiset", i)
			}
			i++
		}
	}
	return nil
}
