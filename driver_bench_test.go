package mimir_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mimir/internal/driver"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
)

// BenchmarkDriverOutput times whole jobs through driver.RunJob on a 2-rank
// in-process world and reports them per output line: the driver's share of a
// job — format, per-rank sort, gather, merge at rank 0 — is per line, and
// on these kinds it used to outweigh the engine (bench/ terasort: 82 % of
// job_s outside the engine phases). terasort is range-partitioned (sorted
// blocks in rank order: rank 0 concatenates), pagerank hash-partitioned but
// streamed in vertex order (sorted, interleaved: rank 0 merges), wordcount
// arrives in engine order (every rank sorts, rank 0 merges).
func BenchmarkDriverOutput(b *testing.B) {
	for _, cfg := range []driver.JobConfig{
		{Kind: driver.JobTeraSort, Rows: 1 << 16, Seed: 1, Hint: true},
		{Kind: driver.JobPageRank, Scale: 11, Seed: 1, Hint: true, PR: true, MaxRounds: 4},
		{Kind: driver.JobWordCount, TotalBytes: 1 << 20, Seed: 1, Hint: true},
	} {
		b.Run(cfg.Kind, func(b *testing.B) {
			run := func() []byte {
				world := mpi.NewWorld(mpi.Config{Size: 2, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
				out, err := driver.RunJob(world, cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				return out
			}
			lines := float64(bytes.Count(run(), []byte{'\n'}))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * lines
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/line")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/line")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/line")
		})
	}
}

// BenchmarkLayout times whole jobs through driver.RunJob on an in-process
// world of one rank and of two ranks ("RxW": R ranks of W goroutines). A
// rank is one goroutine, as in the paper's one-rank-per-core MPI layout, so
// more ranks are the engine's one way to use more cores; 2x1 against 1x1
// is what a second core buys each kind.
func BenchmarkLayout(b *testing.B) {
	for _, job := range []struct {
		name string
		cfg  driver.JobConfig
	}{
		{"wordcount", driver.JobConfig{Kind: driver.JobWordCount, TotalBytes: 4 << 20, Seed: 1, Hint: true}},
		{"wordcount_zipf_pr", driver.JobConfig{Kind: driver.JobWordCount, TotalBytes: 4 << 20, Seed: 1, Hint: true, PR: true,
			UseZipf: true, ZipfSkew: 1.1, Partitioner: "sample"}},
		{"pagerank", driver.JobConfig{Kind: driver.JobPageRank, Scale: 13, Seed: 1, Hint: true, PR: true, MaxRounds: 4}},
		{"terasort", driver.JobConfig{Kind: driver.JobTeraSort, Rows: 128 << 10, Seed: 1, Hint: true}},
	} {
		for _, ranks := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/%dx1", job.name, ranks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					world := mpi.NewWorld(mpi.Config{Size: ranks, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
					if _, err := driver.RunJob(world, job.cfg, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
