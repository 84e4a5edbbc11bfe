package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/spill"
)

func TestCustomPartitioner(t *testing.T) {
	// Route every key to rank 0 regardless of hash; all output must land
	// there and the result must be unchanged.
	const p = 4
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	got := map[string]uint64{}
	perRank := make([]int64, p)
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{
			Arena:       arena,
			Partitioner: partition.Func(func(key []byte, nranks int) int { return 0 }),
		})
		var mine []Record
		for i, l := range testText {
			if i%p == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out, err := job.Run(SliceInput(mine), wcMap, wcReduce)
		if err != nil {
			return err
		}
		defer out.Free()
		mu.Lock()
		defer mu.Unlock()
		perRank[c.Rank()] = out.NumKV()
		return out.Scan(func(k, v []byte) error {
			got[string(k)] += BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, got, refWordCount(testText))
	for r := 1; r < p; r++ {
		if perRank[r] != 0 {
			t.Errorf("rank %d got %d KVs despite all-to-rank-0 partitioner", r, perRank[r])
		}
	}
	if perRank[0] == 0 {
		t.Error("rank 0 got no output")
	}
}

func TestPartitionerOutOfRange(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 1, Net: testNet()})
	arena := mem.NewArena(0)
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{
			Arena:       arena,
			Partitioner: partition.Func(func(key []byte, nranks int) int { return nranks }),
		})
		_, err := job.Run(SliceInput([]Record{{Val: []byte("x")}}), wcMap, wcReduce)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "partitioner returned") {
		t.Fatalf("err = %v, want partitioner range rejection", err)
	}
}

func TestStreamingCompressionCorrect(t *testing.T) {
	// Under a spill policy the compression bucket drains whenever it
	// outgrows its share of the arena headroom above the watermark. On an
	// arena this small even the whole headroom is under two pages, so the
	// two-page floor is the budget and the bucket drains many times during
	// the map, each drain shipping partial combines of the same keys. The
	// totals must match.
	const pageSize = 2 << 10
	const capacity = 26 << 10
	if a := mem.NewArena(capacity); a.Capacity()-a.Watermark(spill.DefaultWatermark) >= 2*pageSize {
		t.Fatalf("capacity %d leaves at least two pages of headroom; the floor would not bind", capacity)
	}
	lines := make([]string, 600)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma-%d delta-%d epsilon-%d zeta-%d", i%7, i%13, i%31, i%53)
	}
	small := func(cfg *Config) {
		cfg.Combiner = wcCombine
		cfg.PageSize = pageSize
		cfg.CommBuf = 1 << 10
	}
	_, delayed, err := runWCSpill(t, 2, lines, 0, small)
	if err != nil {
		t.Fatalf("delayed run: %v", err)
	}
	got, drained, err := runWCSpill(t, 2, lines, capacity, func(cfg *Config) {
		small(cfg)
		cfg.OutOfCore = SpillWhenNeeded
	})
	if err != nil {
		t.Fatalf("spill run: %v", err)
	}
	checkWC(t, got, refWordCount(lines))
	// Every drain re-emits the keys it holds, so repeated drains show up
	// as more KVs leaving the bucket than there are distinct keys per rank.
	t.Logf("KVs leaving the bucket: delayed %d, spill-derived %d", delayed.MapOutKVs, drained.MapOutKVs)
	if drained.MapOutKVs < 2*delayed.MapOutKVs {
		t.Errorf("bucket emitted %d KVs under the spill policy vs %d delayed; want repeated drains",
			drained.MapOutKVs, delayed.MapOutKVs)
	}
}

func TestStreamingCompressionBoundsBucket(t *testing.T) {
	// The compression bucket cannot spill. Under a spill policy it lives in
	// the headroom above the watermark and drains whenever it outgrows its
	// share of it, so KV compression degrades to spilling instead of running out of
	// memory. A map-only job on all-distinct keys isolates the bucket: in
	// delayed mode the full bucket is still resident while its drain fills
	// the receive-side container.
	lines := make([]string, 2048)
	for i := range lines {
		lines[i] = fmt.Sprintf("unique-word-%04d another-%04d third-%04d", i, i+10000, i+20000)
	}
	run := func(capacity int64, ooc OutOfCore) (map[string]uint64, int64, error) {
		w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
		arena := mem.NewArena(capacity)
		spillFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
		group := spill.NewGroup()
		var mu sync.Mutex
		got := map[string]uint64{}
		err := w.Run(func(c *mpi.Comm) error {
			cfg := Config{Arena: arena, Combiner: wcCombine, CommBuf: 4 << 10, PageSize: 2 << 10,
				OutOfCore: ooc, SpillFS: spillFS, SpillGroup: group}
			var mine []Record
			for i, l := range lines {
				if i%2 == c.Rank() {
					mine = append(mine, Record{Val: []byte(l)})
				}
			}
			out, err := NewJob(c, cfg).Run(SliceInput(mine), wcMap, nil)
			if err != nil {
				return err
			}
			defer out.Free()
			mu.Lock()
			defer mu.Unlock()
			return out.Scan(func(k, v []byte) error {
				got[string(k)] += BytesUint64(v)
				return nil
			})
		})
		return got, arena.Peak(), err
	}
	want := refWordCount(lines)
	_, delayed, err := run(0, Error)
	if err != nil {
		t.Fatalf("delayed run: %v", err)
	}
	// At a cap equal to the delayed peak nothing has to spill, yet the
	// derived budget keeps the bucket inside the headroom.
	_, streaming, err := run(delayed, SpillWhenNeeded)
	if err != nil {
		t.Fatalf("spill run at the delayed peak: %v", err)
	}
	t.Logf("arena peak: delayed %d B, spill-derived %d B", delayed, streaming)
	if float64(streaming) > 0.8*float64(delayed) {
		t.Errorf("spill-derived cps peak %d not well below delayed %d", streaming, delayed)
	}
	// Well below that peak the delayed bucket runs out of memory, while
	// the spill policy drains it and completes with the same output.
	capacity := delayed * 4 / 10
	if _, _, err := run(capacity, Error); !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("OutOfCore: Error at %d bytes: err = %v, want ErrNoMemory", capacity, err)
	}
	got, _, err := run(capacity, SpillWhenNeeded)
	if err != nil {
		t.Fatalf("spill run at %d bytes: %v", capacity, err)
	}
	checkWC(t, got, want)
}

func TestFailedJobLeavesArenaBalanced(t *testing.T) {
	// A shared arena must return to its pre-job level after OOM failures,
	// across all workflow variants.
	for _, mod := range []func(*Config){
		nil,
		func(cfg *Config) { cfg.Combiner = wcCombine },
		func(cfg *Config) { cfg.PartialReduce = wcCombine },
	} {
		arena := mem.NewArena(24 << 10)
		w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = fmt.Sprintf("word-%d word-%d word-%d filler filler", i, i*2, i*3)
		}
		err := w.Run(func(c *mpi.Comm) error {
			cfg := Config{Arena: arena, CommBuf: 4 << 10, PageSize: 2 << 10}
			if mod != nil {
				mod(&cfg)
			}
			var mine []Record
			for i, l := range lines {
				if i%2 == c.Rank() {
					mine = append(mine, Record{Val: []byte(l)})
				}
			}
			out, err := NewJob(c, cfg).Run(SliceInput(mine), wcMap, wcReduce)
			if err == nil {
				out.Free()
			}
			return err
		})
		if !errors.Is(err, mem.ErrNoMemory) {
			t.Fatalf("expected OOM, got %v", err)
		}
		if used := arena.Used(); used != 0 {
			t.Errorf("arena used %d after failed job, want 0", used)
		}
	}
}
