package driver

import (
	"bytes"
	"fmt"
	"testing"

	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
)

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
func TestRunJobOutputAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun figures are meaningless under the race detector")
	}
	const perLine = 0.05
	for _, tc := range []struct {
		small, large JobConfig
	}{
		{JobConfig{Kind: JobTeraSort, Rows: 1 << 13}, JobConfig{Kind: JobTeraSort, Rows: 1 << 15}},
		// A fixed round count, so the two sizes differ in lines alone.
		{JobConfig{Kind: JobPageRank, Scale: 8, PR: true, MaxRounds: 3}, JobConfig{Kind: JobPageRank, Scale: 10, PR: true, MaxRounds: 3}},
		{JobConfig{Kind: JobWordCount, TotalBytes: 64 << 10}, JobConfig{Kind: JobWordCount, TotalBytes: 256 << 10}},
	} {
		t.Run(tc.small.Kind, func(t *testing.T) {
			var lines, job, added [2]float64
			for i, cfg := range []JobConfig{tc.small, tc.large} {
				cfg.Seed, cfg.Hint, cfg.Workers = 1, true, 1
				job[i] = testing.AllocsPerRun(5, func() {
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
				added[i] = job[i] - testing.AllocsPerRun(5, func() {
					err := testWorld(2).Run(func(c *mpi.Comm) error {
						_, _, err := cfg.RunRank(cfg.NewEngine(c, mem.NewArena(0), part, nil), nil, nil)
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			extra := lines[1] - lines[0]
			if extra < 700 {
				t.Fatalf("the large job has only %v more lines than the small one", extra)
			}
			t.Logf("%v -> %v lines: RunJob adds %v -> %v allocations to the engine's %v -> %v",
				lines[0], lines[1], added[0], added[1], job[0]-added[0], job[1]-added[1])
			if got := (added[1] - added[0]) / extra; got >= perLine {
				t.Errorf("the output path allocates %.3f times per extra line, want < %v", got, perLine)
			}
			if tc.small.Kind != JobTeraSort {
				return
			}
			if got := (job[1] - job[0]) / extra; got >= perLine {
				t.Errorf("the whole job allocates %.3f times per extra row, want < %v", got, perLine)
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
			if got := testing.AllocsPerRun(10, func() { canonicalize(blocks) }); got > 1 {
				t.Errorf("%d sorted disjoint lines: canonicalize allocated %v times, want 1", n, got)
			}
		}
	})
}
