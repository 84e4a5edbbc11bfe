// Fault tolerance: checkpoint/restart in the style of FT-MRMPI (the
// authors' companion work the paper cites for MR-MPI's "inability to handle
// system faults"). The job checkpoints its post-shuffle state to the
// parallel file system; a fault injected during the reduce phase kills the
// first attempt, and the re-run resumes from the checkpoint — the input is
// never read and the map and aggregate phases never execute again.
//
//	go run ./examples/faulttolerance
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"

	"mimir"
	"mimir/internal/pfs"
)

var corpus = []string{
	"checkpointing the aggregated state makes the expensive part durable",
	"a fault in the reduce phase no longer wastes the whole shuffle",
	"the restarted job resumes from the parallel file system",
}

var errInjected = errors.New("injected node fault during reduce")

func main() {
	const ranks = 4
	fs := pfs.New(pfs.Config{Bandwidth: 1e8, Latency: 1e-5})
	ckpt := &mimir.Checkpoint{FS: fs, Name: "wordcount-demo"}

	fmt.Println("attempt 1: fault injected in the reduce phase")
	_, err := attempt(fs, ckpt, ranks, true)
	if err == nil {
		log.Fatal("expected the injected fault to fail the job")
	}
	fmt.Printf("  job failed as expected: %v\n", err)
	fmt.Printf("  checkpoint present for all ranks: %v\n\n", ckpt.Exists(ranks))

	fmt.Println("attempt 2: restart with the same checkpoint name")
	counts, err := attempt(fs, ckpt, ranks, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recovered %d unique words; 'the' appears %d times\n",
		len(counts), counts["the"])
}

func attempt(fs *pfs.FS, ckpt *mimir.Checkpoint, ranks int, inject bool) (map[string]uint64, error) {
	world := mimir.NewWorld(ranks)
	arena := mimir.NewArena(0)
	var mu sync.Mutex
	counts := map[string]uint64{}
	var mapCalls, restores int64

	err := world.Run(func(c *mimir.Comm) error {
		var mine []mimir.Record
		for i, line := range corpus {
			if i%ranks == c.Rank() {
				mine = append(mine, mimir.Record{Val: []byte(line)})
			}
		}
		job := mimir.NewJob(c, mimir.Config{Arena: arena, Checkpoint: ckpt})
		mapFn := func(rec mimir.Record, emit mimir.Emitter) error {
			atomic.AddInt64(&mapCalls, 1)
			for _, w := range strings.Fields(string(rec.Val)) {
				if err := emit.Emit([]byte(w), mimir.Uint64Bytes(1)); err != nil {
					return err
				}
			}
			return nil
		}
		reduceFn := func(key []byte, vals *mimir.ValueIter, emit mimir.Emitter) error {
			if inject {
				return errInjected
			}
			var sum uint64
			for v, ok := vals.Next(); ok; v, ok = vals.Next() {
				sum += mimir.BytesUint64(v)
			}
			return emit.Emit(key, mimir.Uint64Bytes(sum))
		}
		out, err := job.Run(mimir.SliceInput(mine), mapFn, reduceFn)
		if err != nil {
			return err
		}
		if out.Stats.RestoredFromCheckpoint {
			atomic.AddInt64(&restores, 1)
		}
		mu.Lock()
		defer mu.Unlock()
		return out.Drain(func(k, v []byte) error {
			counts[string(k)] += mimir.BytesUint64(v)
			return nil
		})
	})
	fmt.Printf("  map callback invocations: %d, ranks restored from checkpoint: %d\n",
		atomic.LoadInt64(&mapCalls), atomic.LoadInt64(&restores))
	return counts, err
}
