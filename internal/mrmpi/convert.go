package mrmpi

import (
	"fmt"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
)

// Convert merges the current KVs by key into KMV records (MR-MPI's convert
// phase, 4 pages: the KV input page, two hash-structure pages, and the KMV
// output page). When the KV data fits in one page the grouping happens in
// memory; otherwise MR-MPI goes out of core, first hash-partitioning the
// spilled KVs into partition files sized to fit a page and then grouping
// each partition — every byte of an oversized dataset crosses the parallel
// file system several more times, which is the heart of Figure 1's cliff.
func (mr *MR) Convert() error {
	defer mr.phaseTimer(&mr.stats.Phases.Convert)()
	if mr.kv == nil {
		return fmt.Errorf("mrmpi: Convert before Map/Aggregate")
	}
	// 2 scratch pages for hash structures.
	scratch := int64(2 * mr.cfg.PageSize)
	if err := mr.cfg.Arena.Alloc(scratch); err != nil {
		return fmt.Errorf("mrmpi: allocating convert buffers: %w", err)
	}
	defer mr.cfg.Arena.Free(scratch)

	kmv, err := mr.newStore("kmv")
	if err != nil {
		return err
	}

	if mr.kv.spilledBytes() == 0 {
		// In-memory case: group the resident page directly.
		if err := mr.convertGroup(mr.scanKV, kmv); err != nil {
			kmv.free()
			return err
		}
	} else if err := mr.convertOutOfCore(kmv); err != nil {
		kmv.free()
		return err
	}

	if err := kmv.finalize(); err != nil {
		kmv.free()
		return err
	}
	mr.stats.SpilledBytes += kmv.spilledBytes()
	mr.kv.free()
	mr.kv = nil
	if mr.kmv != nil {
		mr.kmv.free()
	}
	mr.kmv = kmv
	return mr.comm.Barrier()
}

// convertGroup groups the KVs produced by scan into KMV records appended to
// out. The grouping hash lives in process memory; its arena footprint is
// the two statically charged scratch pages, faithful to MR-MPI's fixed page
// accounting.
func (mr *MR) convertGroup(scan func(func(k, v []byte) error) error, out *store) error {
	type group struct {
		nvals int
		vals  []byte // concatenated [vlen][value] entries
	}
	groups := map[string]*group{}
	var order []string
	err := scan(func(k, v []byte) error {
		mr.charge(mr.cfg.Costs.PerRecord + float64(len(k)+len(v))*mr.cfg.Costs.ReducePerByte)
		g, ok := groups[string(k)]
		if !ok {
			g = &group{}
			groups[string(k)] = g
			order = append(order, string(k))
		}
		var lenb [4]byte
		lenb[0] = byte(len(v))
		lenb[1] = byte(len(v) >> 8)
		lenb[2] = byte(len(v) >> 16)
		lenb[3] = byte(len(v) >> 24)
		g.vals = append(g.vals, lenb[:]...)
		g.vals = append(g.vals, v...)
		g.nvals++
		return nil
	})
	if err != nil {
		return err
	}
	var rec []byte
	for _, k := range order {
		g := groups[k]
		rec = kmvHeader(rec[:0], len(k), g.nvals)
		rec = append(rec, k...)
		rec = append(rec, g.vals...)
		if err := out.append(rec); err != nil {
			return err
		}
	}
	return nil
}

// convertOutOfCore handles KV data larger than a page: pass 1 routes every
// KV into one of NP hash-partition spill files (NP chosen so one partition's
// KVs fit in a page); pass 2 reads each partition back and groups it in
// memory.
func (mr *MR) convertOutOfCore(out *store) error {
	total := mr.kv.totBytes
	np := int((total + int64(mr.cfg.PageSize) - 1) / int64(mr.cfg.PageSize))
	if np < 2 {
		np = 2
	}

	// Pass 1: partition. Each partition is itself a store with one page
	// resident at a time? No — MR-MPI streams through its existing pages;
	// partitions go straight to the file system. We buffer per-partition
	// appends in small batches purely to bound simulated op counts.
	names := make([]string, np)
	bufs := make([][]byte, np)
	for i := range names {
		names[i] = mr.spillName(fmt.Sprintf("cvt%d", i))
	}
	const batch = 4 << 10
	defer func() {
		for _, n := range names {
			mr.cfg.Spill.Remove(n)
		}
	}()
	flush := func(i int) error {
		if len(bufs[i]) == 0 {
			return nil
		}
		if err := mr.cfg.Spill.Append(mr.comm.Clock(), names[i], bufs[i]); err != nil {
			return fmt.Errorf("mrmpi: writing convert partition: %w", err)
		}
		mr.stats.SpilledBytes += int64(len(bufs[i]))
		bufs[i] = bufs[i][:0]
		return nil
	}
	var enc []byte
	err := mr.scanKV(func(k, v []byte) error {
		mr.charge(mr.cfg.Costs.PerRecord)
		i := int(kvbuf.HashKey(k) % uint64(np))
		var err error
		enc, err = mr.hint.Encode(enc[:0], k, v)
		if err != nil {
			return err
		}
		bufs[i] = append(bufs[i], enc...)
		if len(bufs[i]) >= batch {
			return flush(i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range bufs {
		if err := flush(i); err != nil {
			return err
		}
	}

	// Pass 2: group each partition in memory.
	for i := 0; i < np; i++ {
		if mr.cfg.Spill.Size(names[i]) == 0 {
			continue
		}
		data, err := mr.cfg.Spill.ReadAll(mr.comm.Clock(), names[i])
		if err != nil {
			return err
		}
		scan := func(fn func(k, v []byte) error) error {
			for pos := 0; pos < len(data); {
				k, v, n, err := mr.hint.Decode(data[pos:])
				if err != nil {
					return fmt.Errorf("mrmpi: corrupt partition file: %w", err)
				}
				if err := fn(k, v); err != nil {
					return err
				}
				pos += n
			}
			return nil
		}
		if err := mr.convertGroup(scan, out); err != nil {
			return err
		}
	}
	return nil
}

// Reduce runs the user reduce callback over the KMV records, producing a new
// KV dataset (MR-MPI's reduce phase, 3 pages: KMV input, KV output, and one
// scratch page). The output becomes the MR object's current KV data, ready
// for another MapReduce cycle or retrieval via ScanOutput.
func (mr *MR) Reduce(reduceFn core.ReduceFunc) error {
	defer mr.phaseTimer(&mr.stats.Phases.Reduce)()
	if mr.kmv == nil {
		return fmt.Errorf("mrmpi: Reduce before Convert")
	}
	scratch := int64(mr.cfg.PageSize)
	if err := mr.cfg.Arena.Alloc(scratch); err != nil {
		return fmt.Errorf("mrmpi: allocating reduce buffers: %w", err)
	}
	defer mr.cfg.Arena.Free(scratch)

	out, err := mr.newStore("out")
	if err != nil {
		return err
	}
	em := &storeEmitter{mr: mr, dst: out}
	err = mr.kmv.scanChunks(func(chunk []byte) error {
		// Each chunk holds whole KMV records.
		for pos := 0; pos < len(chunk); {
			rec, n, err := nextKMVRecord(chunk[pos:])
			if err != nil {
				return err
			}
			key, nvals, vals, err := decodeKMV(rec)
			if err != nil {
				return err
			}
			mr.charge(mr.cfg.Costs.PerRecord + float64(len(rec))*mr.cfg.Costs.ReducePerByte)
			it := kvbuf.NewValueIter(vals, nvals, kvbuf.Varlen())
			if err := reduceFn(key, it, em); err != nil {
				return err
			}
			pos += n
		}
		return nil
	})
	if err != nil {
		out.free()
		return err
	}
	if err := out.finalize(); err != nil {
		out.free()
		return err
	}
	mr.stats.SpilledBytes += out.spilledBytes()
	mr.kmv.free()
	mr.kmv = nil
	mr.kv = out
	mr.stats.OutputKVs = out.nrec
	return mr.comm.Barrier()
}

// nextKMVRecord returns the first whole KMV record at the front of buf and
// its encoded length.
func nextKMVRecord(buf []byte) ([]byte, int, error) {
	key, nvals, vals, err := decodeKMV(buf)
	if err != nil {
		return nil, 0, err
	}
	pos := 0
	for i := 0; i < nvals; i++ {
		if pos+4 > len(vals) {
			return nil, 0, fmt.Errorf("mrmpi: truncated KMV values")
		}
		vlen := int(uint32(vals[pos]) | uint32(vals[pos+1])<<8 | uint32(vals[pos+2])<<16 | uint32(vals[pos+3])<<24)
		pos += 4 + vlen
		if pos > len(vals) {
			return nil, 0, fmt.Errorf("mrmpi: truncated KMV value %d", i)
		}
	}
	n := 8 + len(key) + pos
	return buf[:n], n, nil
}

// ScanOutput iterates the final KV data (after Reduce, or after Map for
// map-only use). Spilled data is read back with its I/O cost charged.
func (mr *MR) ScanOutput(fn func(k, v []byte) error) error {
	if mr.kv == nil {
		return fmt.Errorf("mrmpi: no output data")
	}
	return mr.scanKV(fn)
}

// Free releases all stores.
func (mr *MR) Free() {
	if mr.kv != nil {
		mr.kv.free()
		mr.kv = nil
	}
	if mr.kmv != nil {
		mr.kmv.free()
		mr.kmv = nil
	}
}
