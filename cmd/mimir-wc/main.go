// Command mimir-wc counts words in real files with the Mimir engine,
// spreading the work over in-process MPI ranks (goroutines).
//
//	mimir-wc [-ranks 8] [-top 20] [-hint] [-pr] [-cps] [-partitioner sample] file...
//
// With no files it reads standard input. For one OS process per rank over
// TCP, see mimir-worker -spawn.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"mimir"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mimir-wc: ")
	ranks := flag.Int("ranks", 8, "number of ranks")
	top := flag.Int("top", 20, "how many of the most frequent words to print")
	hint := flag.Bool("hint", true, "use the KV-hint (strz keys, fixed 8-byte counts)")
	pr := flag.Bool("pr", true, "use partial reduction instead of convert+reduce")
	cps := flag.Bool("cps", false, "use KV compression before the shuffle")
	partArg := flag.String("partitioner", "", "key->rank strategy: hash (default) or sample (sampled weighted ranges)")
	flag.Parse()
	part, err := mimir.PartitionerByName(*partArg)
	if err != nil {
		log.Fatal(err)
	}
	// The engine config every rank's job shares (runWC adds the arena).
	opts := mimir.Config{Partitioner: part}
	if *hint {
		opts.Hint = mimir.Hint{Key: mimir.StrZ(), Val: mimir.Fixed(8)}
	}
	if *pr {
		opts.PartialReduce = combine
	}
	if *cps {
		opts.Combiner = combine
	}

	lines, err := readLines(flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	world := mimir.NewWorld(*ranks)
	counts, err := runWC(world, lines, opts)
	if err != nil {
		log.Fatal(err)
	}
	world.Close()

	type wc struct {
		w string
		n uint64
	}
	list := make([]wc, 0, len(counts))
	var total uint64
	for w, n := range counts {
		list = append(list, wc{w, n})
		total += n
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].w < list[j].w
	})
	fmt.Printf("%d words, %d unique\n", total, len(list))
	for i, e := range list {
		if i == *top {
			break
		}
		fmt.Printf("%8d  %s\n", e.n, e.w)
	}
}

// combine merges two counts of one word (the pr and cps callback), writing
// the sum into existing as mimir.CombineFunc allows.
func combine(_ []byte, existing, incoming []byte) ([]byte, error) {
	binary.LittleEndian.PutUint64(existing, mimir.BytesUint64(existing)+mimir.BytesUint64(incoming))
	return existing, nil
}

// runWC counts words across all ranks of world and gathers the totals at
// rank 0.
func runWC(world *mimir.World, lines [][]byte, cfg mimir.Config) (map[string]uint64, error) {
	cfg.Arena = mimir.NewArena(0)
	counts := map[string]uint64{}
	err := world.Run(func(c *mimir.Comm) error {
		var mine []mimir.Record
		for i := c.Rank(); i < len(lines); i += c.Size() {
			mine = append(mine, mimir.Record{Val: lines[i]})
		}
		mapFn := func(rec mimir.Record, emit mimir.Emitter) error {
			for _, w := range strings.Fields(string(rec.Val)) {
				w = strings.Trim(strings.ToLower(w), ".,;:!?\"'()[]{}")
				if w == "" || strings.ContainsRune(w, 0) {
					continue
				}
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
		out, err := mimir.NewJob(c, cfg).Run(mimir.SliceInput(mine), mapFn, reduceFn)
		if err != nil {
			return err
		}
		// Serialize this rank's totals (ranks hold disjoint key sets) and
		// gather them at rank 0. Words cannot contain whitespace, so "word
		// count" lines are unambiguous. Drain frees each output page as soon
		// as its lines are written.
		var sb strings.Builder
		err = out.Drain(func(k, v []byte) error {
			fmt.Fprintf(&sb, "%s %d\n", k, mimir.BytesUint64(v))
			return nil
		})
		if err != nil {
			return err
		}
		gathered, err := c.Gatherv([]byte(sb.String()), 0)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		for _, buf := range gathered {
			sc := bufio.NewScanner(strings.NewReader(string(buf)))
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var w string
				var n uint64
				if _, err := fmt.Sscanf(sc.Text(), "%s %d", &w, &n); err == nil {
					counts[w] += n
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

func readLines(files []string) ([][]byte, error) {
	var lines [][]byte
	read := func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
		return sc.Err()
	}
	if len(files) == 0 {
		if err := read(os.Stdin); err != nil {
			return nil, err
		}
		return lines, nil
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		err = read(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return lines, nil
}
