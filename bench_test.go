package mimir_test

// One testing.B benchmark per table/figure of the paper's evaluation, plus
// micro-benchmarks of the load-bearing primitives. Figure benchmarks run a
// full deterministic sweep per iteration (they take seconds to minutes —
// the default -benchtime keeps them at one iteration); use
// `go test -bench 'Fig0?8' -benchmem` to select one.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"mimir"
	"mimir/internal/expt"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/pfs"
	"mimir/internal/workloads"
)

func benchFigure(b *testing.B, gen func() []*expt.Figure) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range gen() {
			f.Render(io.Discard)
		}
	}
}

// BenchmarkFig01 regenerates Figure 1: the MR-MPI single-node WordCount
// performance cliff on Comet.
func BenchmarkFig01(b *testing.B) { benchFigure(b, expt.Fig1) }

// BenchmarkFig07 regenerates Figure 7: KV bytes with and without the
// KV-hint on the Wikipedia dataset.
func BenchmarkFig07(b *testing.B) { benchFigure(b, expt.Fig7) }

// BenchmarkFig08 regenerates Figure 8: peak memory and execution time on a
// Comet node, Mimir vs MR-MPI (64M/512M), four benchmarks.
func BenchmarkFig08(b *testing.B) { benchFigure(b, expt.Fig8) }

// BenchmarkFig09 regenerates Figure 9: the same comparison on a Mira node.
func BenchmarkFig09(b *testing.B) { benchFigure(b, expt.Fig9) }

// BenchmarkFig10 regenerates Figure 10: weak scalability of WordCount on
// Comet and Mira, 2-64 nodes.
func BenchmarkFig10(b *testing.B) { benchFigure(b, expt.Fig10) }

// BenchmarkFig11 regenerates Figure 11: KV compression on a Comet node.
func BenchmarkFig11(b *testing.B) { benchFigure(b, expt.Fig11) }

// BenchmarkFig12 regenerates Figure 12: KV compression on a Mira node.
func BenchmarkFig12(b *testing.B) { benchFigure(b, expt.Fig12) }

// BenchmarkFig13 regenerates Figure 13: the hint/pr/cps optimization ladder
// on a Mira node.
func BenchmarkFig13(b *testing.B) { benchFigure(b, expt.Fig13) }

// BenchmarkFig14 regenerates Figure 14: weak scalability of the ladder on
// Mira (the heaviest sweep; several minutes per iteration).
func BenchmarkFig14(b *testing.B) { benchFigure(b, expt.Fig14) }

// ---- Micro-benchmarks ----

// BenchmarkKVEncodeDefault measures the default 8-byte-header KV encoding.
func BenchmarkKVEncodeDefault(b *testing.B) {
	h := kvbuf.DefaultHint()
	k, v := []byte("benchmark"), mimir.Uint64Bytes(1)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = h.Encode(buf[:0], k, v)
	}
}

// BenchmarkKVEncodeHinted measures the KV-hint encoding (strz key, fixed
// value) that Figure 7 evaluates.
func BenchmarkKVEncodeHinted(b *testing.B) {
	h := kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
	k, v := []byte("benchmark"), mimir.Uint64Bytes(1)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = h.Encode(buf[:0], k, v)
	}
}

// BenchmarkKVDecode measures stream decoding of KVs.
func BenchmarkKVDecode(b *testing.B) {
	h := kvbuf.DefaultHint()
	enc, _ := h.Encode(nil, []byte("benchmark"), mimir.Uint64Bytes(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := h.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKeyPopulations names the key sets the bucket benchmarks run on:
// every generated key, and only those with HashKey = 3 mod 8 — what rank 3
// of an 8-rank job holds under the default partitioner, which is the
// population a bucket inside the engine actually sees.
var benchKeyPopulations = []struct {
	name string
	keep func(k []byte) bool
}{
	{"unfiltered", func([]byte) bool { return true }},
	{"residue=3of8", func(k []byte) bool { return kvbuf.HashKey(k)%8 == 3 }},
}

// benchKeys returns the first n keys of format that keep accepts.
func benchKeys(n int, format string, keep func(k []byte) bool) [][]byte {
	keys := make([][]byte, 0, n)
	for i := 0; len(keys) < n; i++ {
		if k := []byte(fmt.Sprintf(format, i)); keep(k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// BenchmarkBucketUpsert measures the combiner hash bucket on a WordCount-
// like workload (8K distinct keys).
func BenchmarkBucketUpsert(b *testing.B) {
	for _, pop := range benchKeyPopulations {
		b.Run(pop.name, func(b *testing.B) {
			arena := mem.NewArena(0)
			bkt, err := kvbuf.NewBucket(arena, 64<<10)
			if err != nil {
				b.Fatal(err)
			}
			defer bkt.Free()
			keys := benchKeys(8192, "word-%04d", pop.keep)
			one := mimir.Uint64Bytes(1)
			merge := func(existing, incoming []byte) ([]byte, error) {
				return mimir.Uint64Bytes(mimir.BytesUint64(existing) + 1), nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bkt.Upsert(keys[i&8191], one, merge); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvert measures the two-pass KV-to-KMV conversion.
func BenchmarkConvert(b *testing.B) {
	for _, pop := range benchKeyPopulations {
		b.Run(pop.name, func(b *testing.B) {
			arena := mem.NewArena(0)
			keys := benchKeys(512, "key-%03d", pop.keep)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := kvbuf.NewKVC(arena, 64<<10, kvbuf.DefaultHint())
				for j := 0; j < 10000; j++ {
					if err := in.Append(keys[j%512], mimir.Uint64Bytes(uint64(j))); err != nil {
						b.Fatal(err)
					}
				}
				out, err := kvbuf.Convert(in, arena, 64<<10, kvbuf.DefaultHint())
				if err != nil {
					b.Fatal(err)
				}
				out.Free()
			}
		})
	}
}

// BenchmarkAlltoallv measures one exchange round across 16 in-process ranks.
func BenchmarkAlltoallv(b *testing.B) {
	const p = 16
	payload := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	w := mimir.NewWorld(p)
	err := w.Run(func(c *mimir.Comm) error {
		send := make([][]byte, p)
		for i := range send {
			send[i] = payload
		}
		for i := 0; i < b.N; i++ {
			if _, err := c.Alltoallv(send); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWordCountMimir measures an end-to-end in-memory WordCount on the
// Mimir engine (8 ranks, 1 MiB of uniform text).
func BenchmarkWordCountMimir(b *testing.B) {
	benchWordCount(b, func(c *mimir.Comm, arena *mem.Arena) workloads.Engine {
		return workloads.NewMimirEngine(c, arena)
	})
}

// BenchmarkWordCountMRMPI measures the same job on the MR-MPI baseline.
func BenchmarkWordCountMRMPI(b *testing.B) {
	benchWordCount(b, func(c *mimir.Comm, arena *mem.Arena) workloads.Engine {
		return workloads.NewMRMPIEngine(c, arena, mimir.Laptop().SpillFSFor(1))
	})
}

func benchWordCount(b *testing.B, mk func(*mimir.Comm, *mem.Arena) workloads.Engine) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const p = 8
		w := mimir.NewWorld(p)
		arena := mimir.NewArena(0)
		err := w.Run(func(c *mimir.Comm) error {
			_, err := workloads.RunWordCount(mk(c, arena), nil, workloads.WCConfig{
				Dist: workloads.Uniform, TotalBytes: 1 << 20, Seed: 42,
			}, workloads.StageOpts{}, nil)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSaveRestore measures the fault-tolerance round trip.
func BenchmarkCheckpointSaveRestore(b *testing.B) {
	b.ReportAllocs()
	fs := pfs.New(pfs.Config{Bandwidth: 1e9})
	for i := 0; i < b.N; i++ {
		ck := &mimir.Checkpoint{FS: fs, Name: fmt.Sprintf("bench-%d", i)}
		for attempt := 0; attempt < 2; attempt++ { // save, then restore
			w := mimir.NewWorld(4)
			arena := mimir.NewArena(0)
			err := w.Run(func(c *mimir.Comm) error {
				input := workloads.TextInput(nil, nil, workloads.Uniform, 42, 1<<18, c.Rank(), 4)
				wrapped := func(emit func(mimir.Record) error) error { return input(emit) }
				out, err := mimir.NewJob(c, mimir.Config{Arena: arena, Checkpoint: ck}).
					Run(wrapped, workloads.WordCountMap, workloads.WordCountReduce)
				if err != nil {
					return err
				}
				out.Free()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		ck.Remove(4)
	}
}

// BenchmarkFileInput measures the line-aligned file splitter.
func BenchmarkFileInput(b *testing.B) {
	fs := pfs.New(pfs.Config{Bandwidth: 1e12})
	var data []byte
	for i := 0; i < 10000; i++ {
		data = append(data, fmt.Sprintf("line %d with some content here\n", i)...)
	}
	fs.Append(nil, "bench.txt", data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rank := 0; rank < 4; rank++ {
			err := mimir.FileInput(fs, nil, "bench.txt", rank, 4)(func(mimir.Record) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMapEmit measures the map-side fast path: emitting KVs into the
// partitioned send buffer with interleaved exchanges, on one rank.
func BenchmarkMapEmit(b *testing.B) {
	w := mimir.NewWorld(1)
	arena := mimir.NewArena(0)
	var line strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&line, "token%02d ", i)
	}
	rec := []byte(line.String())
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(c *mimir.Comm) error {
		job := mimir.NewJob(c, mimir.Config{Arena: arena})
		input := func(emit func(mimir.Record) error) error {
			for i := 0; i < b.N; i++ {
				if err := emit(mimir.Record{Val: rec}); err != nil {
					return err
				}
			}
			return nil
		}
		out, err := job.Run(input, workloads.WordCountMap, workloads.WordCountReduce)
		if err != nil {
			return err
		}
		out.Free()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTextGen measures the deterministic dataset generators.
func BenchmarkTextGen(b *testing.B) {
	for _, dist := range []workloads.Distribution{workloads.Uniform, workloads.Wikipedia} {
		b.Run(dist.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(1 << 16)
			for i := 0; i < b.N; i++ {
				in := workloads.TextInput(nil, nil, dist, 42, 1<<16, 0, 1)
				if err := in(func(mimir.Record) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArena measures the node-memory accounting hot path under
// concurrency (every page allocation crosses it).
func BenchmarkArena(b *testing.B) {
	a := mimir.NewArena(0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := a.Alloc(4096); err != nil {
				b.Fatal(err)
			}
			a.Free(4096)
		}
	})
	var wg sync.WaitGroup
	wg.Wait()
}
