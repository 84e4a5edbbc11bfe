package core

import (
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

// spillLines generates deterministic WordCount input: n lines, six words
// each, over a ~600-word vocabulary. The vocabulary is bounded so the
// convert index fits the arena headroom (as real vocabularies must fit
// real nodes), yet large enough that no single word's KMV record outgrows
// a page. Records that span pages are covered by internal/spill's
// TestSpanningKMVRecord.
func spillLines(n int) []string {
	primes := [6]int{1, 7, 13, 29, 43, 71}
	lines := make([]string, n)
	for i := range lines {
		var w [6]string
		for j, p := range primes {
			w[j] = fmt.Sprintf("w%03d", (i*p+j)%600)
		}
		lines[i] = fmt.Sprintf("%s %s %s %s %s %s", w[0], w[1], w[2], w[3], w[4], w[5])
	}
	return lines
}

// runWCSpill is runWC with a bounded arena and configurable out-of-core
// policy, returning the run error instead of failing the test so callers
// can assert ErrNoMemory.
func runWCSpill(t *testing.T, p int, lines []string, capacity int64, modify func(*Config)) (map[string]uint64, Stats, error) {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(capacity)
	spillFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	group := spill.NewGroup() // ranks share the arena, so they share eviction
	var mu sync.Mutex
	got := map[string]uint64{}
	var stats Stats
	err := w.Run(func(c *mpi.Comm) error {
		cfg := Config{Arena: arena, PageSize: 1 << 10, CommBuf: 4 << 10,
			SpillFS: spillFS, SpillGroup: group}
		if modify != nil {
			modify(&cfg)
		}
		job := NewJob(c, cfg)
		var mine []Record
		for i, l := range lines {
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
		stats.Spill.Add(out.Stats.Spill)
		return out.Scan(func(k, v []byte) error {
			got[string(k)] += BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		return nil, stats, err
	}
	if used := arena.Used(); used != 0 {
		t.Fatalf("arena used %d after job, want 0 (buffer leak)", used)
	}
	return got, stats, nil
}

// TestSpillPoliciesMatchError is the subsystem's core acceptance check at
// unit scale: a dataset that fails with ErrNoMemory under OutOfCore: Error
// completes under both spill policies with the identical output multiset,
// while the arena never exceeds its capacity.
func TestSpillPoliciesMatchError(t *testing.T) {
	const p = 4
	const capacity = 96 << 10
	lines := spillLines(6000)

	want, _, err := runWCSpill(t, p, lines, 0, nil) // unlimited reference
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	_, _, err = runWCSpill(t, p, lines, capacity, nil) // Error policy, tight arena
	if err == nil {
		t.Fatalf("Error policy completed in a %d-byte arena; the dataset no longer exercises the out-of-core path", capacity)
	}
	if !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("Error policy failed with %v, want ErrNoMemory", err)
	}

	for _, ooc := range []OutOfCore{SpillWhenNeeded, SpillAlways} {
		got, stats, err := runWCSpill(t, p, lines, capacity, func(cfg *Config) { cfg.OutOfCore = ooc })
		if err != nil {
			t.Fatalf("%v in a %d-byte arena: %v", ooc, capacity, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d unique words, want %d", ooc, len(got), len(want))
		}
		for w, n := range want {
			if got[w] != n {
				t.Fatalf("%v: count[%q] = %d, want %d", ooc, w, got[w], n)
			}
		}
		if stats.Spill.SpilledBytes == 0 {
			t.Fatalf("%v completed without spilling in a tight arena (stats %+v)", ooc, stats.Spill)
		}
		if stats.Spill.Restores == 0 {
			t.Fatalf("%v never restored a page (stats %+v)", ooc, stats.Spill)
		}
	}
}

// TestSpillNeverExceedsCapacity drives the spill path and checks the peak:
// the whole point of the watermark is that the node arena stays within its
// hard capacity while data many times its size flows through.
func TestSpillNeverExceedsCapacity(t *testing.T) {
	const capacity = 96 << 10
	w := mpi.NewWorld(mpi.Config{Size: 4, Net: testNet()})
	arena := mem.NewArena(capacity)
	spillFS := pfs.New(pfs.Config{})
	group := spill.NewGroup()
	lines := spillLines(6000)
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{
			Arena: arena, PageSize: 1 << 10, CommBuf: 4 << 10,
			SpillFS: spillFS, SpillGroup: group, OutOfCore: SpillWhenNeeded,
		})
		var mine []Record
		for i, l := range lines {
			if i%4 == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out, err := job.Run(SliceInput(mine), wcMap, wcReduce)
		if err != nil {
			return err
		}
		out.Free()
		return nil
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	if peak := arena.Peak(); peak > capacity {
		t.Fatalf("arena peak %d exceeds capacity %d", peak, capacity)
	}
}

// TestSpillRequiresFS: the spill policies without a file system are a
// configuration error, reported before any work happens.
func TestSpillRequiresFS(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{Arena: mem.NewArena(0), OutOfCore: SpillWhenNeeded})
		_, err := job.Run(SliceInput(nil), wcMap, wcReduce)
		return err
	})
	if err == nil {
		t.Fatal("SpillWhenNeeded without SpillFS did not fail")
	}
}

// TestSpillWithOptimizations checks the spill path composes with the
// paper's optimization ladder (hint, combiner, partial reduction).
func TestSpillWithOptimizations(t *testing.T) {
	const p = 4
	const capacity = 96 << 10
	lines := spillLines(4000)
	want, _, err := runWCSpill(t, p, lines, 0, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	mods := map[string]func(*Config){
		"hint": func(cfg *Config) {
			cfg.OutOfCore = SpillWhenNeeded
			cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
		},
		"combiner": func(cfg *Config) {
			cfg.OutOfCore = SpillWhenNeeded
			cfg.Combiner = wcCombine
			cfg.CombinerBudget = 8 << 10
		},
		"partial-reduce": func(cfg *Config) {
			cfg.OutOfCore = SpillWhenNeeded
			cfg.PartialReduce = wcCombine
		},
		"serial-aggregate": func(cfg *Config) {
			cfg.OutOfCore = SpillAlways
			cfg.SerialAggregate = true
		},
	}
	for name, mod := range mods {
		t.Run(name, func(t *testing.T) {
			got, _, err := runWCSpill(t, p, lines, capacity, mod)
			if err != nil {
				t.Fatalf("spill run with %s: %v", name, err)
			}
			checkWC(t, got, want)
		})
	}
}
