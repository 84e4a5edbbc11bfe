package workloads

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"mimir/internal/core"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/spill"
)

// spillRun runs one workload on the Mimir engine across 4 ranks with the
// given arena capacity and out-of-core policy, returning a deterministic
// summary of the global output plus the accumulated stage stats.
func spillRun(t *testing.T, capacity int64, ooc core.OutOfCore,
	run func(e *MimirEngine) (string, StageStats, error)) (string, StageStats) {
	t.Helper()
	const p = 4
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(capacity)
	spillFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	group := spill.NewGroup() // one node: the ranks share arena and eviction
	summaries := make([]string, p)
	var mu sync.Mutex
	var total StageStats
	err := w.Run(func(c *mpi.Comm) error {
		e := NewMimirEngine(c, arena)
		e.PageSize = 1 << 10
		e.CommBuf = 8 << 10
		e.OutOfCore = ooc
		e.SpillFS = spillFS
		e.SpillGroup = group
		sum, stats, err := run(e)
		if err != nil {
			return err
		}
		summaries[c.Rank()] = sum
		mu.Lock()
		total.accumulate(stats)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("capacity=%d policy=%v: %v", capacity, ooc, err)
	}
	if used := arena.Used(); used != 0 {
		t.Fatalf("capacity=%d policy=%v: arena used %d after run", capacity, ooc, used)
	}
	return fmt.Sprint(summaries), total
}

// TestSpillEquivalence is satellite property (c): for each workload, the
// output under OutOfCore: SpillWhenNeeded in an arena too small for the
// working set is identical to the output under the default Error policy
// with unlimited memory — spilling changes where pages live, never what
// the job computes. Driven through testing/quick so each workload is
// checked at a few generated seeds.
func TestSpillEquivalence(t *testing.T) {
	type wl struct {
		name     string
		capacity int64 // tight: above the non-spillable floor, below the working set
		run      func(seed uint64) func(e *MimirEngine) (string, StageStats, error)
	}
	workloads := []wl{
		{
			// ~5 MB of KV data through a 1 MiB node arena. The convert
			// index and KMV record headers (one entry per distinct word per
			// rank, ~700 KiB for the full 8192-word vocabulary) are the
			// non-spillable floor.
			name:     "WC",
			capacity: 1 << 20,
			run: func(seed uint64) func(e *MimirEngine) (string, StageStats, error) {
				return func(e *MimirEngine) (string, StageStats, error) {
					res, err := RunWordCount(e, nil, WCConfig{
						Dist: Uniform, TotalBytes: 2 << 20, Seed: seed,
					}, StageOpts{Hint: WCHint()}, nil)
					return fmt.Sprintf("u=%d n=%d", res.UniqueWords, res.TotalWords), res.Stats, err
				}
			},
		},
		{
			// The resident points (24 B each) are the floor; each level's
			// octant KVs are the spillable traffic.
			name:     "OC",
			capacity: 768 << 10,
			run: func(seed uint64) func(e *MimirEngine) (string, StageStats, error) {
				return func(e *MimirEngine) (string, StageStats, error) {
					res, err := RunOctree(e, nil, OCConfig{
						TotalPoints: 20000, Seed: seed, Density: 0.01,
					}, StageOpts{Hint: OCHint()})
					return fmt.Sprintf("l=%d d=%d td=%d", res.Levels, res.DenseOctants, res.TotalDense), res.Stats, err
				}
			},
		},
		{
			// The adjacency (non-spillable application state) is the floor;
			// the edge-distribution stage's KVs are the spillable traffic.
			name:     "BFS",
			capacity: 448 << 10,
			run: func(seed uint64) func(e *MimirEngine) (string, StageStats, error) {
				return func(e *MimirEngine) (string, StageStats, error) {
					res, err := RunBFS(e, nil, BFSConfig{
						Scale: 10, EdgeFactor: 16, Seed: seed, Root: seed % 1024, Validate: true,
					}, StageOpts{Hint: BFSHint()}, MultiRound{})
					return fmt.Sprintf("v=%d depth=%d", res.Visited, res.Depth), res.Stats, err
				}
			},
		},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			spilledOnce := false
			property := func(seedByte uint8) bool {
				seed := uint64(seedByte)*2654435761 + 1
				wantSum, wantStats := spillRun(t, 0, core.Error, w.run(seed))
				gotSum, gotStats := spillRun(t, w.capacity, core.SpillWhenNeeded, w.run(seed))
				if gotStats.SpilledBytes > 0 {
					spilledOnce = true
				}
				if wantStats.SpilledBytes != 0 {
					t.Errorf("seed %d: unlimited run spilled %d bytes", seed, wantStats.SpilledBytes)
				}
				if gotSum != wantSum {
					t.Errorf("seed %d: spill output %q, in-memory output %q", seed, gotSum, wantSum)
				}
				return gotSum == wantSum
			}
			if err := quick.Check(property, &quick.Config{MaxCount: 3}); err != nil {
				t.Error(err)
			}
			// The equivalence is vacuous if the tight ladder never spilled.
			if !spilledOnce {
				t.Errorf("%s: no generated seed spilled; shrink the arena", w.name)
			}
		})
	}
}
