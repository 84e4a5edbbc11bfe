package core

import (
	"encoding/binary"
	"fmt"

	"mimir/internal/pfs"
)

// Checkpoint enables post-shuffle checkpointing to the parallel file
// system, in the spirit of the authors' FT-MRMPI work (the paper's cited
// fix for MR-MPI's "inability to handle system faults"). When configured,
// Run writes each rank's aggregated intermediate data to the file system
// right after the map+aggregate phases — the part of the job that consumed
// the input and the network — and a re-executed job with the same
// checkpoint name resumes from that state, skipping input, map, and
// aggregate entirely.
type Checkpoint struct {
	// FS is the file system checkpoints are written to. Required.
	FS *pfs.FS
	// Name identifies the job; a restarted job must use the same name (and
	// the same world size and Hint).
	Name string
}

// ckptMagic guards against reading garbage or a different job's layout.
const ckptMagic = 0x4d494d4952434b31 // "MIMIRCK1"

func (c *Checkpoint) file(rank int) string {
	return fmt.Sprintf("ckpt/%s/rank%d", c.Name, rank)
}

// Exists reports whether a complete checkpoint is present for every rank of
// a world of the given size.
func (c *Checkpoint) Exists(size int) bool {
	for r := 0; r < size; r++ {
		if c.FS.Size(c.file(r)) < 16 {
			return false
		}
	}
	return true
}

// Remove deletes the checkpoint files of a world of the given size.
func (c *Checkpoint) Remove(size int) {
	for r := 0; r < size; r++ {
		c.FS.Remove(c.file(r))
	}
}

// saveCheckpoint writes this rank's post-aggregate state: every KV of the
// receive container (or partial-reduction bucket), re-encoded under the
// job's hint, preceded by a magic/count header.
func (j *Job) saveCheckpoint() error {
	ck := j.cfg.Checkpoint
	name := ck.file(j.comm.Rank())
	ck.FS.Remove(name)

	var header [16]byte
	binary.LittleEndian.PutUint64(header[0:], ckptMagic)
	var count uint64
	scan := func(fn func(k, v []byte) error) error {
		if j.prBkt != nil {
			return j.prBkt.Scan(fn)
		}
		return j.recvKVC.Scan(fn)
	}
	// First pass to count (cheap; data is in memory).
	if err := scan(func(k, v []byte) error { count++; return nil }); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(header[8:], count)
	if err := ck.FS.Append(j.comm.Clock(), name, header[:]); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}

	buf := make([]byte, 0, DefaultPageSize)
	err := scan(func(k, v []byte) error {
		var err error
		buf, err = j.cfg.Hint.Encode(buf, k, v)
		if err != nil {
			return err
		}
		if len(buf) >= DefaultPageSize {
			if err := ck.FS.Append(j.comm.Clock(), name, buf); err != nil {
				return fmt.Errorf("core: writing checkpoint: %w", err)
			}
			buf = buf[:0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		if err := ck.FS.Append(j.comm.Clock(), name, buf); err != nil {
			return fmt.Errorf("core: writing checkpoint: %w", err)
		}
	}
	return nil
}

// restoreCheckpoint loads this rank's post-aggregate state into the receive
// container or partial-reduction bucket.
func (j *Job) restoreCheckpoint() error {
	ck := j.cfg.Checkpoint
	data, err := ck.FS.ReadAll(j.comm.Clock(), ck.file(j.comm.Rank()))
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if len(data) < 16 || binary.LittleEndian.Uint64(data) != ckptMagic {
		return fmt.Errorf("core: checkpoint %q is corrupt", ck.file(j.comm.Rank()))
	}
	want := binary.LittleEndian.Uint64(data[8:])
	payload := data[16:]

	var got uint64
	if j.cfg.PartialReduce != nil {
		j.prBkt, err = newBucketForJob(j)
		if err != nil {
			return err
		}
		for pos := 0; pos < len(payload); {
			k, v, n, err := j.cfg.Hint.Decode(payload[pos:])
			if err != nil {
				return fmt.Errorf("core: corrupt checkpoint record: %w", err)
			}
			// Checkpointed bucket entries are already unique per key.
			if err := j.prBkt.Put(k, v); err != nil {
				return err
			}
			pos += n
			got++
		}
	} else {
		j.recvKVC = newKVCForJob(j)
		n, err := j.recvKVC.AppendChunk(payload)
		if err != nil {
			return fmt.Errorf("core: corrupt checkpoint payload: %w", err)
		}
		got = uint64(n)
	}
	if got != want {
		return fmt.Errorf("core: checkpoint %q holds %d records, header says %d",
			ck.file(j.comm.Rank()), got, want)
	}
	j.stats.RecvKVs = int64(got)
	j.stats.RestoredFromCheckpoint = true
	return nil
}
