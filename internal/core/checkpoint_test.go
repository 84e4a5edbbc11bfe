package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/spill"
)

func ckptFS() *pfs.FS { return pfs.New(pfs.Config{Bandwidth: 1e9, Latency: 1e-6}) }

// runCkptWC runs WordCount with a checkpoint and reports the merged counts
// plus whether any rank restored and whether the map ran.
func runCkptWC(t *testing.T, fs *pfs.FS, name string, failReduce bool,
	modify func(*Config)) (counts map[string]uint64, restored, mapped bool, err error) {
	t.Helper()
	const p = 3
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	counts = map[string]uint64{}
	err = w.Run(func(c *mpi.Comm) error {
		cfg := Config{Arena: arena, Checkpoint: &Checkpoint{FS: fs, Name: name}}
		if modify != nil {
			modify(&cfg)
		}
		var mine []Record
		for i, l := range testText {
			if i%p == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		trackedMap := func(rec Record, emit Emitter) error {
			mu.Lock()
			mapped = true
			mu.Unlock()
			return wcMap(rec, emit)
		}
		reduce := wcReduce
		if failReduce {
			reduce = func([]byte, *kvbuf.ValueIter, Emitter) error {
				return errors.New("injected reduce failure")
			}
		}
		out, err := NewJob(c, cfg).Run(SliceInput(mine), trackedMap, reduce)
		if err != nil {
			return err
		}
		defer out.Free()
		mu.Lock()
		defer mu.Unlock()
		if out.Stats.RestoredFromCheckpoint {
			restored = true
		}
		return out.Scan(func(k, v []byte) error {
			counts[string(k)] += BytesUint64(v)
			return nil
		})
	})
	if arena.Used() != 0 {
		t.Fatalf("arena used %d after checkpointed job", arena.Used())
	}
	return counts, restored, mapped, err
}

func TestCheckpointWriteAndRestore(t *testing.T) {
	fs := ckptFS()
	want := refWordCount(testText)

	// First run: maps, checkpoints, completes.
	got1, restored, mapped, err := runCkptWC(t, fs, "job1", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored || !mapped {
		t.Fatalf("first run: restored=%v mapped=%v", restored, mapped)
	}
	checkWC(t, got1, want)

	// Second run with the same name: must restore, skip the map, and
	// produce identical output.
	got2, restored, mapped, err := runCkptWC(t, fs, "job1", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Error("second run did not restore from checkpoint")
	}
	if mapped {
		t.Error("second run re-executed the map")
	}
	checkWC(t, got2, want)
}

func TestCheckpointRecoversFromReduceFailure(t *testing.T) {
	// The motivating scenario: the job fails after aggregate (here: a
	// reduce-side fault). Re-running resumes from the checkpoint without
	// re-reading input.
	fs := ckptFS()
	_, _, _, err := runCkptWC(t, fs, "job2", true, nil)
	if err == nil {
		t.Fatal("injected failure did not fail the job")
	}
	got, restored, mapped, err := runCkptWC(t, fs, "job2", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !restored || mapped {
		t.Errorf("recovery run: restored=%v mapped=%v", restored, mapped)
	}
	checkWC(t, got, refWordCount(testText))
}

func TestCheckpointWithPartialReduce(t *testing.T) {
	fs := ckptFS()
	mod := func(cfg *Config) { cfg.PartialReduce = wcCombine }
	got1, _, _, err := runCkptWC(t, fs, "job3", false, mod)
	if err != nil {
		t.Fatal(err)
	}
	got2, restored, _, err := runCkptWC(t, fs, "job3", false, mod)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Error("pr run did not restore")
	}
	checkWC(t, got1, refWordCount(testText))
	checkWC(t, got2, refWordCount(testText))
}

func TestCheckpointWithHint(t *testing.T) {
	fs := ckptFS()
	mod := func(cfg *Config) { cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)} }
	if _, _, _, err := runCkptWC(t, fs, "job4", false, mod); err != nil {
		t.Fatal(err)
	}
	got, restored, _, err := runCkptWC(t, fs, "job4", false, mod)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Error("hinted run did not restore")
	}
	checkWC(t, got, refWordCount(testText))
}

func TestCheckpointExistsAndRemove(t *testing.T) {
	fs := ckptFS()
	ck := &Checkpoint{FS: fs, Name: "job5"}
	if ck.Exists(3) {
		t.Error("Exists before any run")
	}
	if _, _, _, err := runCkptWC(t, fs, "job5", false, nil); err != nil {
		t.Fatal(err)
	}
	if !ck.Exists(3) {
		t.Error("checkpoint missing after run")
	}
	ck.Remove(3)
	if ck.Exists(3) {
		t.Error("checkpoint survived Remove")
	}
	// After removal, a re-run maps again.
	_, restored, mapped, err := runCkptWC(t, fs, "job5", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored || !mapped {
		t.Errorf("after Remove: restored=%v mapped=%v", restored, mapped)
	}
}

func TestCheckpointCorruptDetected(t *testing.T) {
	fs := ckptFS()
	if _, _, _, err := runCkptWC(t, fs, "job6", false, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt rank 1's file (keep it large enough to pass the size probe).
	name := fmt.Sprintf("ckpt/%s/rank%d", "job6", 1)
	fs.Remove(name)
	fs.Append(nil, name, make([]byte, 64))
	_, _, _, err := runCkptWC(t, fs, "job6", false, nil)
	if err == nil {
		t.Fatal("corrupt checkpoint restored silently")
	}
}

func TestCheckpointPartialSetIgnored(t *testing.T) {
	// A checkpoint present on only some ranks must be ignored collectively.
	fs := ckptFS()
	fs.Append(nil, "ckpt/job7/rank0", make([]byte, 64))
	_, restored, mapped, err := runCkptWC(t, fs, "job7", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored || !mapped {
		t.Errorf("partial checkpoint: restored=%v mapped=%v", restored, mapped)
	}
}

// rawOutput flattens one rank's output in Scan order into length-prefixed
// bytes: the byte-exact observable a resumed run must reproduce.
func rawOutput(out *Output) ([]byte, error) {
	var buf []byte
	err := out.Scan(func(k, v []byte) error {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(v)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, k...)
		buf = append(buf, v...)
		return nil
	})
	return buf, err
}

// TestCheckpointResumeByteIdentical: a checkpointed run and the run that
// resumes from its checkpoint both reproduce an uncheckpointed run's output
// bytes on every rank, with the post-aggregate state in a spilling KV
// container or in a partial-reduction bucket.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	const p = 4
	lines := spillLines(3000)
	for _, tc := range []struct {
		name     string
		capacity int64
		mod      func(*Config)
	}{
		{"spill-always", 192 << 10, func(cfg *Config) {
			cfg.CommBuf = 4 << 10
			cfg.OutOfCore = SpillAlways
		}},
		{"partial-reduce", 0, func(cfg *Config) { cfg.PartialReduce = wcCombine }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ck *Checkpoint) (outs [][]byte, restored []bool) {
				t.Helper()
				w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
				arena := mem.NewArena(tc.capacity)
				spillFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
				group := spill.NewGroup()
				outs, restored = make([][]byte, p), make([]bool, p)
				err := w.Run(func(c *mpi.Comm) error {
					cfg := Config{Arena: arena, PageSize: 1 << 10, SpillFS: spillFS, SpillGroup: group, Checkpoint: ck}
					tc.mod(&cfg)
					var mine []Record
					for i, l := range lines {
						if i%p == c.Rank() {
							mine = append(mine, Record{Val: []byte(l)})
						}
					}
					out, err := NewJob(c, cfg).Run(SliceInput(mine), wcMap, wcReduce)
					if err != nil {
						return err
					}
					defer out.Free()
					restored[c.Rank()] = out.Stats.RestoredFromCheckpoint
					outs[c.Rank()], err = rawOutput(out)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				if used := arena.Used(); used != 0 {
					t.Fatalf("arena used %d after job, want 0 (buffer leak)", used)
				}
				return outs, restored
			}

			want, _ := run(nil)
			ck := &Checkpoint{FS: ckptFS(), Name: tc.name}
			first, restored := run(ck)
			if restored[0] {
				t.Fatal("first run claims to have restored from a checkpoint")
			}
			if !ck.Exists(p) {
				t.Fatal("first run left no checkpoint")
			}
			second, restored := run(ck)
			for r := range want {
				if !bytes.Equal(first[r], want[r]) {
					t.Errorf("rank %d: checkpointed output diverges (%d vs %d bytes)", r, len(first[r]), len(want[r]))
				}
				if !bytes.Equal(second[r], want[r]) {
					t.Errorf("rank %d: resumed output diverges (%d vs %d bytes)", r, len(second[r]), len(want[r]))
				}
				if !restored[r] {
					t.Errorf("rank %d did not restore from the checkpoint", r)
				}
			}
		})
	}
}
