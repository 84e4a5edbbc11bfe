// Quickstart: WordCount on the Mimir public API.
//
// Four ranks (goroutines standing in for MPI processes) split a small
// corpus, map it to (word, 1) pairs that are shuffled with interleaved
// Alltoallv rounds, and reduce the counts per unique word.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"

	"mimir"
)

var corpus = []string{
	"in the beginning mimir inherited the core principles of mr mpi",
	"the execution model interleaves the map and aggregate phases",
	"kv containers grow page by page and shrink as data is consumed",
	"the reduce phase follows a two pass convert from kv to kmv",
}

func main() {
	const ranks = 4
	world := mimir.NewWorld(ranks)
	arena := mimir.NewArena(0) // one node, unlimited memory

	var mu sync.Mutex
	counts := map[string]uint64{}

	err := world.Run(func(c *mimir.Comm) error {
		// Each rank reads its stripe of the corpus.
		var mine []mimir.Record
		for i, line := range corpus {
			if i%ranks == c.Rank() {
				mine = append(mine, mimir.Record{Val: []byte(line)})
			}
		}

		job := mimir.NewJob(c, mimir.Config{
			Arena: arena,
			// WordCount's KV-hint: keys are words (NUL-free strings),
			// values are fixed 8-byte counts.
			Hint: mimir.Hint{Key: mimir.StrZ(), Val: mimir.Fixed(8)},
		})

		mapFn := func(rec mimir.Record, emit mimir.Emitter) error {
			for _, w := range strings.Fields(string(rec.Val)) {
				if err := emit.Emit([]byte(w), mimir.Uint64Bytes(1)); err != nil {
					return err
				}
			}
			return nil
		}
		reduceFn := func(key []byte, vals *mimir.ValueIter, emit mimir.Emitter) error {
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
		// Drain reads this rank's output once, freeing each page as soon as
		// it has been read; the output is empty afterwards.
		mu.Lock()
		defer mu.Unlock()
		return out.Drain(func(k, v []byte) error {
			counts[string(k)] += mimir.BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	type wc struct {
		w string
		n uint64
	}
	var list []wc
	for w, n := range counts {
		list = append(list, wc{w, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].w < list[j].w
	})
	fmt.Printf("%d unique words; top 10:\n", len(list))
	for i, e := range list {
		if i == 10 {
			break
		}
		fmt.Printf("  %-12s %d\n", e.w, e.n)
	}
}
