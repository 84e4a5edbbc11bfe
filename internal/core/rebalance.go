package core

import (
	"encoding/binary"
	"fmt"

	"mimir/internal/kvbuf"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

// Checkpoint repartitioning is the storage half of elastic membership
// (internal/membership): a checkpoint written by an N-rank world is reshaped
// into a checkpoint an M-rank world can restore, by streaming every record
// through the partition function at the new size. Restore then proceeds
// exactly as if the M-rank world had written the checkpoint itself — the
// per-rank files carry the same magic/count header and Hint encoding
// saveCheckpoint produces, so the restore path needs no changes and keys
// stay whole (each key lives entirely on one rank before and after, because
// aggregation already made keys unique per rank).

// RepartitionStats reports what a checkpoint rebalance did, for the
// membership event log and BENCH_membership.
type RepartitionStats struct {
	// OldSize / NewSize are the world sizes before and after.
	OldSize, NewSize int
	// Records is the total KV count across all ranks (conserved).
	Records int64
	// BytesIn is the total encoded payload read (headers excluded).
	BytesIn int64
	// BytesMoved is the encoded size of the records whose rank assignment
	// changed — the data the rebalance actually shipped. Records that hash
	// to the same rank at both sizes contribute nothing.
	BytesMoved int64
}

// RepartitionCheckpoint rewrites checkpoint name from oldSize per-rank files
// to newSize per-rank files under the same name, rehashing every key with
// the engine's default partitioner (kvbuf.HashKey mod size — jobs routed by
// a custom non-planning Config.Partitioner must pass the equivalent key→rank
// function as part; nil means the default). Planning partitioners never
// checkpoint split state: the engine plans with splitting disabled whenever
// Config.Checkpoint is set, so checkpointed keys always live whole on one
// rank and remain repartitionable by key alone.
// New payloads are staged under temporary names and validated against the
// per-rank record-count headers before any old file is overwritten, so a
// corrupt or truncated source checkpoint is detected before it is damaged.
// A no-op resize (oldSize == newSize) still validates and rewrites, keeping
// the caller's logic uniform.
func RepartitionCheckpoint(fs *pfs.FS, clock *simtime.Clock, ck Checkpoint, hint kvbuf.Hint, oldSize, newSize int, part func(key []byte, nranks int) int) (RepartitionStats, error) {
	st := RepartitionStats{OldSize: oldSize, NewSize: newSize}
	if fs == nil {
		fs = ck.FS
	}
	if fs == nil {
		return st, fmt.Errorf("core: repartition checkpoint %q: no file system", ck.Name)
	}
	if oldSize < 1 || newSize < 1 {
		return st, fmt.Errorf("core: repartition checkpoint %q: invalid sizes %d -> %d", ck.Name, oldSize, newSize)
	}
	if part == nil {
		part = func(key []byte, nranks int) int { return int(kvbuf.HashKey(key) % uint64(nranks)) }
	}
	stage := func(rank int) string { return fmt.Sprintf("ckpt/%s/stage%d", ck.Name, rank) }

	// Stream every old rank file into newSize staged buffers, flushing to
	// the staged files page by page so memory stays bounded by
	// newSize * DefaultPageSize regardless of checkpoint size.
	bufs := make([][]byte, newSize)
	counts := make([]uint64, newSize)
	for r := range bufs {
		fs.Remove(stage(r))
		bufs[r] = make([]byte, 0, DefaultPageSize)
	}
	flush := func(r int, force bool) error {
		if len(bufs[r]) < DefaultPageSize && !(force && len(bufs[r]) > 0) {
			return nil
		}
		if err := fs.Append(clock, stage(r), bufs[r]); err != nil {
			return fmt.Errorf("core: repartition checkpoint %q: staging rank %d: %w", ck.Name, r, err)
		}
		bufs[r] = bufs[r][:0]
		return nil
	}
	fail := func(err error) (RepartitionStats, error) {
		for r := 0; r < newSize; r++ {
			fs.Remove(stage(r))
		}
		return st, err
	}
	for r := 0; r < oldSize; r++ {
		data, err := fs.ReadAll(clock, ck.file(r))
		if err != nil {
			return fail(fmt.Errorf("core: repartition checkpoint %q: reading rank %d: %w", ck.Name, r, err))
		}
		if len(data) < 16 || binary.LittleEndian.Uint64(data) != ckptMagic {
			return fail(fmt.Errorf("core: repartition checkpoint %q: rank %d file is corrupt", ck.Name, r))
		}
		want := binary.LittleEndian.Uint64(data[8:])
		payload := data[16:]
		st.BytesIn += int64(len(payload))
		var got uint64
		for pos := 0; pos < len(payload); {
			k, _, n, err := hint.Decode(payload[pos:])
			if err != nil {
				return fail(fmt.Errorf("core: repartition checkpoint %q: corrupt record on rank %d: %w", ck.Name, r, err))
			}
			dest := part(k, newSize)
			if dest < 0 || dest >= newSize {
				return fail(fmt.Errorf("core: repartition checkpoint %q: partitioner sent key to rank %d of %d", ck.Name, dest, newSize))
			}
			// The record's encoding is identical at any world size: move
			// the already-encoded bytes verbatim.
			bufs[dest] = append(bufs[dest], payload[pos:pos+n]...)
			counts[dest]++
			if r != dest {
				// Moved = the record was not already resident on its
				// destination rank; same-rank records ship nothing.
				st.BytesMoved += int64(n)
			}
			if err := flush(dest, false); err != nil {
				return fail(err)
			}
			pos += n
			got++
		}
		if got != want {
			return fail(fmt.Errorf("core: repartition checkpoint %q: rank %d holds %d records, header says %d", ck.Name, r, got, want))
		}
		st.Records += int64(got)
	}
	for r := 0; r < newSize; r++ {
		if err := flush(r, true); err != nil {
			return fail(err)
		}
	}

	// Staged payloads are complete; write the final files (header first,
	// then the staged payload), then drop the stages and any old rank files
	// beyond the new size.
	for r := 0; r < newSize; r++ {
		payload, err := fs.ReadAll(clock, stage(r))
		if err != nil && fs.Size(stage(r)) > 0 {
			return fail(fmt.Errorf("core: repartition checkpoint %q: reading stage %d: %w", ck.Name, r, err))
		}
		var header [16]byte
		binary.LittleEndian.PutUint64(header[0:], ckptMagic)
		binary.LittleEndian.PutUint64(header[8:], counts[r])
		fs.Remove(ck.file(r))
		err = fs.Append(clock, ck.file(r), header[:])
		if err == nil && len(payload) > 0 {
			err = fs.Append(clock, ck.file(r), payload)
		}
		if err != nil {
			return fail(fmt.Errorf("core: repartition checkpoint %q: writing rank %d: %w", ck.Name, r, err))
		}
		fs.Remove(stage(r))
	}
	for r := newSize; r < oldSize; r++ {
		fs.Remove(ck.file(r))
	}
	return st, nil
}
