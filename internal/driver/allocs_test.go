package driver

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
)

// perRun is testing.AllocsPerRun that also counts bytes: the mean number of
// allocations and of bytes allocated by one call of f, over runs calls after
// a warm-up call, with GOMAXPROCS at 1.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRunJobOutputAllocs pins the driver's output path — format a line per
// record, sort the rank's block, gather, merge at rank 0 — to a handful of
// allocations per job, whatever the line count. Measured as a margin, so
// fixed per-job costs cancel: per kind, a small and a large job on a 2-rank
// Local world, each run once through RunJob and once engine-only (RunRank
// with no output buffer, which is what RunJob wraps); what RunJob adds may
// grow by < 0.05 allocations per extra output line. Before the sinks appended
// and rank 0 merged it grew by 2 (wordcount) to 3 (terasort, pagerank): two
// boxed fmt arguments and a string per line. TeraSort's row collection and
// in-rank sort sit under RunRank, so there the whole job is held to the same
// margin (it was 5.0: a row and a slice header on top of the three).
//
// TeraSort's bytes are pinned per extra row too. The engine-only run may
// allocate < 60 B a row (the 20-byte row lives in the shuffle's pages and
// the sort block; it was 76 B while the sort kept a 16-byte entry per row in
// two arrays), and RunJob may add < 120 B a row (it was 150 B while every
// rank wrote 42-byte hex lines, rank 0 gathered its own, and the blocks were
// joined into a third copy).
func TestRunJobOutputAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun figures are meaningless under the race detector")
	}
	const perLine = 0.05
	const teraEngineBytes, teraAddedBytes = 60, 120
	for _, tc := range []struct {
		small, large JobConfig
	}{
		{JobConfig{Kind: JobTeraSort, Rows: 1 << 13}, JobConfig{Kind: JobTeraSort, Rows: 1 << 15}},
		// A fixed round count, so the two sizes differ in lines alone.
		{JobConfig{Kind: JobPageRank, Scale: 8, PR: true, MaxRounds: 3}, JobConfig{Kind: JobPageRank, Scale: 10, PR: true, MaxRounds: 3}},
		{JobConfig{Kind: JobWordCount, TotalBytes: 64 << 10}, JobConfig{Kind: JobWordCount, TotalBytes: 256 << 10}},
	} {
		t.Run(tc.small.Kind, func(t *testing.T) {
			var lines, job, added, engineB, addedB [2]float64
			for i, cfg := range []JobConfig{tc.small, tc.large} {
				cfg.Seed, cfg.Hint, cfg.Workers = 1, true, 1
				var jobB float64
				job[i], jobB = perRun(5, func() {
					out, err := RunJob(testWorld(2), cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					lines[i] = float64(bytes.Count(out, []byte{'\n'}))
				})
				part, err := partition.ByName(cfg.Partitioner)
				if err != nil {
					t.Fatal(err)
				}
				var engine float64
				engine, engineB[i] = perRun(5, func() {
					err := testWorld(2).Run(func(c *mpi.Comm) error {
						_, _, err := cfg.RunRank(cfg.NewEngine(c, mem.NewArena(0), part, nil), nil, nil)
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
				})
				added[i], addedB[i] = job[i]-engine, jobB-engineB[i]
			}
			extra := lines[1] - lines[0]
			if extra < 700 {
				t.Fatalf("the large job has only %v more lines than the small one", extra)
			}
			t.Logf("%v -> %v lines: RunJob adds %.1f -> %.1f allocations (%.0f -> %.0f B) to the engine's %.1f -> %.1f (%.0f -> %.0f B)",
				lines[0], lines[1], added[0], added[1], addedB[0], addedB[1],
				job[0]-added[0], job[1]-added[1], engineB[0], engineB[1])
			if got := (added[1] - added[0]) / extra; got >= perLine {
				t.Errorf("the output path allocates %.3f times per extra line, want < %v", got, perLine)
			}
			if tc.small.Kind != JobTeraSort {
				return
			}
			if got := (job[1] - job[0]) / extra; got >= perLine {
				t.Errorf("the whole job allocates %.3f times per extra row, want < %v", got, perLine)
			}
			if got := (engineB[1] - engineB[0]) / extra; got >= teraEngineBytes {
				t.Errorf("the engine allocates %.1f B per extra row, want < %d", got, teraEngineBytes)
			}
			if got := (addedB[1] - addedB[0]) / extra; got >= teraAddedBytes {
				t.Errorf("RunJob adds %.1f B per extra row, want < %d", got, teraAddedBytes)
			}
		})
	}

	// Blocks that arrive sorted and in rank order cost rank 0 one buffer, and
	// the ranks nothing, however many lines they hold.
	t.Run("canonicalize", func(t *testing.T) {
		for _, n := range []int{100, 10000} {
			blocks := make([][]byte, 4)
			for i := 0; i < n; i++ {
				r := i * len(blocks) / n
				blocks[r] = fmt.Appendf(blocks[r], "%08d %d\n", i, i)
			}
			if got := testing.AllocsPerRun(10, func() {
				for _, b := range blocks {
					sortLines(b)
				}
			}); got != 0 {
				t.Errorf("%d sorted lines: sortLines allocated %v times, want 0", n, got)
			}
			if got := testing.AllocsPerRun(10, func() { canonicalize(blocks, nil) }); got > 1 {
				t.Errorf("%d sorted disjoint lines: canonicalize allocated %v times, want 1", n, got)
			}
		}
	})
}
