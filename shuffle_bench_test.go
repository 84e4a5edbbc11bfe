package mimir_test

// BenchmarkShuffle measures the wall-clock cost of the wordcount-shaped
// shuffle hot path — map emit → partitioned send buffer → TCP exchange →
// receive container — over real loopback sockets, at 1 and 4 ranks and with
// frame compression off and on. It is a working benchmark, not a pin: the
// committed wall-clock ledger is bench/ (shuffle_tcp, shuffle_flate) and the
// exact host-independent allocation counts are TestShuffleAllocs'.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mimir"
	"mimir/internal/kvbuf"
	"mimir/internal/mpi"
	"mimir/internal/transport"
)

// shuffleKVsPerRank is the number of word KVs each rank emits per job run.
// At ~17 encoded bytes per KV this shuffles ~1 MiB per rank per op.
const shuffleKVsPerRank = 1 << 16

// shuffleVocab is the distinct-word count; like real text, keys repeat.
const shuffleVocab = 4096

// shuffleHint is the wordcount KV-hint: NUL-terminated string keys, fixed
// 8-byte counts.
func shuffleHint() kvbuf.Hint { return kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)} }

// shuffleWords deterministically generates one rank's pre-tokenized input:
// each record is one word, so the map is a bare emit and the measurement
// isolates the shuffle itself rather than text tokenization.
func shuffleWords(rank, n int) []mimir.Record {
	vocab := make([][]byte, shuffleVocab)
	for i := range vocab {
		// Variable-length, wordcount-shaped keys (8 to 16 bytes).
		w := fmt.Sprintf("word%04x", i)
		for len(w) < 8+i%9 {
			w += "x"
		}
		vocab[i] = []byte(w)
	}
	rng := uint64(rank)*0x9E3779B97F4A7C15 + 0x1234567
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	recs := make([]mimir.Record, n)
	for i := range recs {
		recs[i] = mimir.Record{Val: vocab[next()%shuffleVocab]}
	}
	return recs
}

// shuffleMesh is an in-process TCP world: one transport per rank over real
// loopback sockets (the conformance builder, minus testing.TB).
func shuffleMesh(size int, compress bool) ([]transport.Transport, error) {
	cfg := func(rank int, addr string) transport.TCPConfig {
		return transport.TCPConfig{
			Addr: addr, Rank: rank, Size: size,
			BootstrapTimeout: 30 * time.Second,
			Compress:         compress,
		}
	}
	b, err := transport.ListenTCP(cfg(0, "127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	trs := make([]transport.Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(cfg(r, b.Addr()))
			if err != nil {
				errs[r] = err
				return
			}
			trs[r] = tr
		}(r)
	}
	tr0, err := b.Accept()
	if err != nil {
		errs[0] = err
	} else {
		trs[0] = tr0
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return trs, nil
}

// shuffleRig holds a reusable mesh: worlds stay up across iterations so the
// measurement covers steady-state shuffling, not mesh bootstrap.
type shuffleRig struct {
	worlds []*mpi.World
	inputs [][]mimir.Record
	arena  *mimir.Arena
}

func newShuffleRig(size int, compress bool) (*shuffleRig, error) {
	trs, err := shuffleMesh(size, compress)
	if err != nil {
		return nil, err
	}
	rig := &shuffleRig{arena: mimir.NewArena(0)}
	for r, tr := range trs {
		rig.worlds = append(rig.worlds, mpi.NewWorld(mpi.Config{Transport: tr}))
		rig.inputs = append(rig.inputs, shuffleWords(r, shuffleKVsPerRank))
	}
	return rig, nil
}

func (rig *shuffleRig) close() {
	for _, w := range rig.worlds {
		w.Close()
	}
}

// runOnce executes one map-only wordcount shuffle across all ranks: every
// word is emitted, partitioned by key hash, exchanged over the mesh, and
// folded into the receive-side KV container. Returns the bytes shuffled.
func (rig *shuffleRig) runOnce() (int64, error) {
	one := mimir.Uint64Bytes(1)
	mapFn := func(rec mimir.Record, e mimir.Emitter) error {
		return e.Emit(rec.Val, one)
	}
	var mu sync.Mutex
	var shuffled int64
	errs := make([]error, len(rig.worlds))
	var wg sync.WaitGroup
	for r, w := range rig.worlds {
		wg.Add(1)
		go func(r int, w *mpi.World) {
			defer wg.Done()
			errs[r] = w.Run(func(c *mimir.Comm) error {
				job := mimir.NewJob(c, mimir.Config{
					Arena:   rig.arena,
					CommBuf: 3 << 20,
					Hint:    shuffleHint(),
				})
				out, err := job.Run(mimir.SliceInput(rig.inputs[r]), mapFn, nil)
				if err != nil {
					return err
				}
				mu.Lock()
				shuffled += out.Stats.ShuffledBytes
				mu.Unlock()
				out.Free()
				return nil
			})
		}(r, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return shuffled, nil
}

// BenchmarkShuffle: the TCP wordcount shuffle at 1 and 4 ranks, compression
// off and on. ns/KV is the headline metric.
func BenchmarkShuffle(b *testing.B) {
	for _, ranks := range []int{1, 4} {
		for _, compress := range []bool{false, true} {
			b.Run(fmt.Sprintf("ranks=%d/compress=%v", ranks, compress), func(b *testing.B) {
				rig, err := newShuffleRig(ranks, compress)
				if err != nil {
					b.Fatal(err)
				}
				defer rig.close()
				shuffled, err := rig.runOnce() // warmup
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(shuffled)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rig.runOnce(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				kvs := int64(ranks) * shuffleKVsPerRank
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*kvs), "ns/KV")
			})
		}
	}
}
