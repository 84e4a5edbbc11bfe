package mrmpi

import (
	"bytes"
	"container/heap"
	"fmt"
	"sort"

	"mimir/internal/kvbuf"
)

// SortKeys sorts this rank's KV data by key with cmp (nil = bytewise),
// mirroring MR-MPI's sort_keys call. Data that fits in the page is sorted
// in memory; spilled data is sorted with an external merge: each chunk is
// sorted in memory and written as a run, then the runs are k-way merged —
// every byte crosses the file system twice more, which is MR-MPI's real
// out-of-core sorting cost.
func (mr *MR) SortKeys(cmp func(a, b []byte) int) error {
	defer mr.phaseTimer(&mr.stats.Phases.Map)()
	if mr.kv == nil {
		return fmt.Errorf("mrmpi: SortKeys before Map")
	}
	if cmp == nil {
		cmp = bytes.Compare
	}
	if mr.kv.spilledBytes() == 0 {
		return mr.sortInMemory(cmp)
	}
	return mr.sortExternal(cmp)
}

// sortInMemory sorts the resident page in place.
func (mr *MR) sortInMemory(cmp func(a, b []byte) int) error {
	type rec struct{ k, enc []byte }
	var recs []rec
	err := mr.scanKV(func(k, v []byte) error {
		mr.charge(mr.cfg.Costs.PerRecord)
		enc, err := mr.hint.Encode(nil, k, v)
		if err != nil {
			return err
		}
		recs = append(recs, rec{k: append([]byte(nil), k...), enc: enc})
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(recs, func(i, j int) bool { return cmp(recs[i].k, recs[j].k) < 0 })
	out, err := mr.newStore("sorted")
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := out.append(r.enc); err != nil {
			out.free()
			return err
		}
	}
	if err := out.finalize(); err != nil {
		out.free()
		return err
	}
	mr.stats.SpilledBytes += out.spilledBytes()
	mr.kv.free()
	mr.kv = out
	return mr.comm.Barrier()
}

// run is one sorted spill run during the external merge.
type run struct {
	name string
	data []byte // current buffered window (whole run; runs are page-sized)
	pos  int
	k, v []byte
	enc  int // encoded size of the current record
}

func (r *run) advance(h kvbuf.Hint) (ok bool, err error) {
	if r.pos >= len(r.data) {
		return false, nil
	}
	r.k, r.v, r.enc, err = h.Decode(r.data[r.pos:])
	if err != nil {
		return false, err
	}
	return true, nil
}

// runHeap orders runs by their current key.
type runHeap struct {
	runs []*run
	cmp  func(a, b []byte) int
}

func (h *runHeap) Len() int           { return len(h.runs) }
func (h *runHeap) Less(i, j int) bool { return h.cmp(h.runs[i].k, h.runs[j].k) < 0 }
func (h *runHeap) Swap(i, j int)      { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *runHeap) Push(x any)         { h.runs = append(h.runs, x.(*run)) }
func (h *runHeap) Pop() any           { r := h.runs[len(h.runs)-1]; h.runs = h.runs[:len(h.runs)-1]; return r }

// sortExternal sorts spilled data: pass 1 sorts each chunk into a run file;
// pass 2 merges the runs through the page into a new store.
func (mr *MR) sortExternal(cmp func(a, b []byte) int) error {
	var runs []*run
	cleanup := func() {
		for _, r := range runs {
			mr.cfg.Spill.Remove(r.name)
		}
	}
	defer cleanup()

	chunkIdx := 0
	err := mr.kv.scanChunks(func(chunk []byte) error {
		type rec struct{ k, enc []byte }
		var recs []rec
		for pos := 0; pos < len(chunk); {
			k, _, n, err := mr.hint.Decode(chunk[pos:])
			if err != nil {
				return err
			}
			mr.charge(mr.cfg.Costs.PerRecord)
			recs = append(recs, rec{k: append([]byte(nil), k...), enc: append([]byte(nil), chunk[pos:pos+n]...)})
			pos += n
		}
		sort.SliceStable(recs, func(i, j int) bool { return cmp(recs[i].k, recs[j].k) < 0 })
		name := mr.spillName(fmt.Sprintf("run%d", chunkIdx))
		chunkIdx++
		var buf []byte
		for _, r := range recs {
			buf = append(buf, r.enc...)
		}
		if err := mr.cfg.Spill.Append(mr.comm.Clock(), name, buf); err != nil {
			return fmt.Errorf("mrmpi: writing sort run: %w", err)
		}
		mr.stats.SpilledBytes += int64(len(buf))
		runs = append(runs, &run{name: name})
		return nil
	})
	if err != nil {
		return err
	}

	// Load run windows and merge. Runs are at most one page each, so the
	// merge working set is bounded by the chunk count times the page size;
	// MR-MPI charges this against its scratch pages.
	h := &runHeap{cmp: cmp}
	for _, r := range runs {
		r.data, err = mr.cfg.Spill.ReadAll(mr.comm.Clock(), r.name)
		if err != nil {
			return err
		}
		ok, err := r.advance(mr.hint)
		if err != nil {
			return err
		}
		if ok {
			h.runs = append(h.runs, r)
		}
	}
	heap.Init(h)

	out, err := mr.newStore("merged")
	if err != nil {
		return err
	}
	for h.Len() > 0 {
		r := h.runs[0]
		if err := out.append(r.data[r.pos : r.pos+r.enc]); err != nil {
			out.free()
			return err
		}
		mr.charge(mr.cfg.Costs.PerRecord)
		r.pos += r.enc
		ok, err := r.advance(mr.hint)
		if err != nil {
			out.free()
			return err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	if err := out.finalize(); err != nil {
		out.free()
		return err
	}
	mr.stats.SpilledBytes += out.spilledBytes()
	mr.kv.free()
	mr.kv = out
	return mr.comm.Barrier()
}

// GatherTo redistributes all KVs onto the first nprocs ranks (MR-MPI's
// gather call), e.g. to funnel a small result to one writer.
func (mr *MR) GatherTo(nprocs int) error {
	defer mr.phaseTimer(&mr.stats.Phases.Aggregate)()
	if mr.kv == nil {
		return fmt.Errorf("mrmpi: GatherTo before Map")
	}
	if nprocs < 1 || nprocs > mr.comm.Size() {
		return fmt.Errorf("mrmpi: GatherTo nprocs %d out of range [1,%d]", nprocs, mr.comm.Size())
	}
	dest := mr.comm.Rank() % nprocs
	p := mr.comm.Size()

	recvStore, err := mr.newStore("gather")
	if err != nil {
		return err
	}
	send := make([][]byte, p)
	err = mr.kv.scanChunks(func(chunk []byte) error {
		for i := range send {
			send[i] = nil
		}
		send[dest] = chunk
		_, err := mr.exchangeRound(send, recvStore, false)
		return err
	})
	if err != nil {
		recvStore.free()
		return err
	}
	for i := range send {
		send[i] = nil
	}
	for {
		allDone, err := mr.exchangeRound(send, recvStore, true)
		if err != nil {
			recvStore.free()
			return err
		}
		if allDone {
			break
		}
	}
	if err := recvStore.finalize(); err != nil {
		recvStore.free()
		return err
	}
	mr.stats.SpilledBytes += recvStore.spilledBytes()
	mr.kv.free()
	mr.kv = recvStore
	return mr.comm.Barrier()
}
