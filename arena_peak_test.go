package mimir_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mimir/internal/driver"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/simtime"
	"mimir/internal/workloads"
)

// TestArenaPeakPerKind runs every job kind on a 2-rank Local world at the
// benchmark's sizes (wordcount is wc_uniform, terasort and pagerank are their
// namesakes; k-means, BFS and octree, which the benchmark does not run, at
// sizes of similar cost) through the driver's own engine and sinks, and
// prints each kind's arena peak (summed over ranks, as the benchmark does),
// the Go heap's growth over the run and their ratio: how far the arena's
// books are from the process's real memory. Heap is printed only.
//
// One bound is asserted. TeraSort charges its sort block 20 bytes a row (the
// row: the sort permutes the block in place and keeps no index), and the
// engine's output container is freed page by page as the block is filled
// from it, so the peak is the block plus what the shuffle keeps in flight:
// rows × 20 + 256 KiB. A container held whole next to the block would add
// its 2.5 MB on top; a 24-byte-a-row sort index, 3 MB.
func TestArenaPeakPerKind(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-sized jobs")
	}
	const ranks = 2
	const teraRows = 1 << 17
	jobs := []driver.JobConfig{
		{Kind: driver.JobWordCount, TotalBytes: 8 << 20, Hint: true},
		{Kind: driver.JobTeraSort, Rows: teraRows, Hint: true},
		{Kind: driver.JobPageRank, Scale: 13, EdgeFactor: 8, MaxRounds: 8, Hint: true, PR: true},
		{Kind: driver.JobKMeans, Points: 1 << 17, K: 8, Dims: 3, Hint: true, PR: true},
		{Kind: driver.JobBFS, Scale: 13, EdgeFactor: 8, Hint: true},
		{Kind: driver.JobOctree, Points: 1 << 18, Hint: true, PR: true},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	var table strings.Builder
	fmt.Fprintf(&table, "%-10s %14s %14s %10s\n", "kind", "arena peak B", "heap growth B", "heap/arena")
	for _, cfg := range jobs {
		cfg.Seed = 3
		cfg.Workers = 1
		arenas := make([]*mem.Arena, ranks)
		world := mpi.NewWorld(mpi.Config{Size: ranks, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
		runtime.GC()
		base := heapNow()
		h := sampleHeap()
		err := world.Run(func(c *mpi.Comm) error {
			arenas[c.Rank()] = mem.NewArena(0)
			eng := cfg.NewEngine(c, arenas[c.Rank()], partition.HashPartitioner{}, nil)
			var out bytes.Buffer
			_, _, err := cfg.RunRank(eng, nil, &out)
			return err
		})
		heapPeak := h.stop()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Kind, err)
		}
		var peak int64
		for _, a := range arenas {
			peak += a.Peak()
		}
		grew := int64(heapPeak) - int64(base)
		fmt.Fprintf(&table, "%-10s %14d %14d %10.2f\n", cfg.Kind, peak, grew, float64(grew)/float64(peak))
		if cfg.Kind == driver.JobTeraSort {
			if bound := int64(teraRows*(workloads.DefaultTeraKeyBytes+workloads.DefaultTeraValBytes) + 256<<10); peak > bound {
				t.Errorf("terasort arena peak %d bytes, want at most %d (rows × 20 + 256 KiB)", peak, bound)
			}
		}
	}
	t.Logf("per-kind arena peak and heap growth, %d Local ranks:\n%s", ranks, table.String())
}
