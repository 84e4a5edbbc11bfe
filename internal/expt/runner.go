// Package expt is the experiment harness that regenerates every figure of
// the paper's evaluation (Section IV). Each figure function returns a
// Figure whose rows mirror the paper's x-axis sweep and whose series mirror
// the paper's lines; cmd/mimir-bench prints them and bench_test.go exposes
// one testing.B benchmark per figure.
//
// Scaling: all sizes are 1024x smaller than the paper's (see
// internal/platform); row labels keep the paper-scale names, so the row
// labeled "1G" runs a 1 MiB dataset against a 128 MiB "128 GB" node.
package expt

import (
	"fmt"
	"math"
	"sync"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/mem"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/mrmpi"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/platform"
	"mimir/internal/spill"
	"mimir/internal/workloads"
)

// EngineKind selects the MapReduce engine.
type EngineKind int

// Engines under comparison.
const (
	Mimir EngineKind = iota
	MRMPI
)

// Bench selects one of the paper's benchmarks.
type Bench int

// The paper's three benchmarks (WordCount appears with two datasets), the
// parameterized zipf WordCount the skew matrix sweeps, and the MRC
// multi-round suite (TeraSort / PageRank / k-means).
const (
	WCUniform Bench = iota
	WCWikipedia
	OC
	BFS
	WCZipf
	TeraSort
	PageRank
	KMeans
)

// String names the benchmark as the paper does.
func (b Bench) String() string {
	switch b {
	case WCUniform:
		return "WC (Uniform)"
	case WCWikipedia:
		return "WC (Wikipedia)"
	case OC:
		return "OC"
	case BFS:
		return "BFS"
	case WCZipf:
		return "WC (Zipf)"
	case TeraSort:
		return "TeraSort"
	case PageRank:
		return "PageRank"
	case KMeans:
		return "k-means"
	}
	return fmt.Sprintf("Bench(%d)", int(b))
}

// Spec describes one experimental run (one point of one figure).
type Spec struct {
	Plat  *platform.Platform
	Nodes int
	// RanksPerNode overrides the platform's core count; the multi-node
	// weak-scaling figures use fewer ranks per node to keep the in-process
	// rank count tractable (node-level memory ratios are unaffected).
	RanksPerNode int
	Engine       EngineKind
	// MRMPIPage sets the MR-MPI page size (default: the platform page size).
	MRMPIPage int
	// MRMPIMode selects MR-MPI's out-of-core mode (zero value:
	// spill-when-needed, the library default).
	MRMPIMode mrmpi.Mode
	// OutOfCore selects Mimir's out-of-core policy (zero value: Error — the
	// paper's fail-on-ErrNoMemory behavior). The spill policies evict
	// container pages to the platform's spill file system.
	OutOfCore core.OutOfCore
	// Optimizations (Mimir honors all three; MR-MPI only CPS).
	Hint, PR, CPS bool
	// Workers sets each Mimir rank's intra-process worker pool; the zero
	// value pins 1 (serial), never GOMAXPROCS (see newMimirEngine). Set
	// explicitly to model hybrid MPI+threads runs.
	Workers int

	Bench Bench
	// WC: total dataset bytes (scaled). OC/k-means: total points.
	// BFS/PageRank: graph scale. TeraSort: total rows.
	SizeBytes int64
	Points    int64
	Scale     int
	Rows      int64
	Seed      uint64
	// Multi-round knobs: the iteration cap (0 = workload default) and
	// k-means geometry (0 = workload defaults).
	MaxRounds int
	K, Dims   int

	// WCZipf knobs: the zipf exponent, the contention mass diverted to the
	// hottest key, and the partitioner name ("", "hash", or "sample") —
	// the skew-matrix axes (Mimir only; MR-MPI has no pluggable partitioner).
	Skew        float64
	Contention  float64
	Partitioner string

	// PerRank optionally collects per-rank distribution samples (phase
	// times, shuffle and spill traffic, total rank time) for the ranks this
	// process hosts; render or serialize it with metrics.Summary.
	PerRank *metrics.Summary
}

// Result is the outcome of one run.
type Result struct {
	// Time is the simulated job execution time in seconds (max over ranks),
	// including reading the input from the parallel file system.
	Time float64
	// PeakPerProc is the peak memory per process in scaled bytes: the
	// busiest node's arena high-water mark divided by its ranks (how the
	// paper reports "peak memory usage").
	PeakPerProc int64
	// SpilledBytes counts out-of-core write traffic: MR-MPI page spills, or
	// Mimir container evictions under a Spec.OutOfCore spill policy (0 for
	// Mimir's default Error policy).
	SpilledBytes int64
	// ShuffledBytes sums exchange traffic over all ranks and stages.
	ShuffledBytes int64
	// Rounds is the multi-round benches' executed round count (stages for
	// the iterative jobs; 1-stage benches report their stage count).
	Rounds int
	// SpillIOSec sums, over all ranks, the simulated seconds spent on
	// Mimir's spill I/O (0 for MR-MPI, whose spill time is inside Time).
	SpillIOSec float64
	// OverlapSavedSec sums, over all ranks, the simulated seconds the
	// overlapped aggregate saved by hiding exchange rounds behind the map
	// (0 for MR-MPI and for SerialAggregate runs).
	OverlapSavedSec float64
	// Err is non-nil if the run failed (typically out of memory).
	Err error
}

// InMemory reports whether the run completed without touching the I/O
// subsystem — the paper's criterion for a valid performance point.
func (r Result) InMemory() bool { return r.Err == nil && r.SpilledBytes == 0 }

// Failed reports whether the run could not complete at all.
func (r Result) Failed() bool { return r.Err != nil }

// Run executes one spec on a fresh in-process world and gathers metrics.
func Run(spec Spec) Result {
	plat := spec.Plat
	rpn := spec.RanksPerNode
	if rpn <= 0 {
		rpn = plat.CoresPerNode
	}
	world := mpi.NewWorld(mpi.Config{Size: spec.Nodes * rpn, Net: plat.Net})

	// One memory arena per node; the node's memory is shared by its ranks.
	// Per-process budget scales with ranks per node so that reducing the
	// rank count (for tractability) does not inflate per-node memory.
	nodeMem := plat.NodeMemory
	arenas := make([]*mem.Arena, spec.Nodes)
	groups := make([]*spill.Group, spec.Nodes)
	for i := range arenas {
		arenas[i] = mem.NewArena(nodeMem)
		// One eviction group per node: ranks sharing the node arena also
		// share memory pressure, so any of them may evict any cold page.
		groups[i] = spill.NewGroup()
	}
	inputFS := plat.InputFSFor(spec.Nodes)
	spillFS := plat.SpillFSFor(spec.Nodes)

	part, err := partition.ByName(spec.Partitioner)
	if err != nil {
		return Result{Err: err}
	}

	return runRanks(world, arenas, rpn, func(c *mpi.Comm, arena *mem.Arena) (workloads.StageStats, int, error) {
		var eng workloads.Engine
		switch spec.Engine {
		case Mimir:
			me := newMimirEngine(c, arena, plat, spec.Workers)
			me.OutOfCore = spec.OutOfCore
			me.SpillFS = spillFS
			me.SpillGroup = groups[c.Rank()/rpn]
			me.Partitioner = part
			eng = me
		case MRMPI:
			mre := workloads.NewMRMPIEngine(c, arena, spillFS)
			mre.PageSize = spec.MRMPIPage
			if mre.PageSize <= 0 {
				mre.PageSize = plat.PageSize
			}
			mre.Mode = spec.MRMPIMode
			mre.Costs = plat.Costs()
			eng = mre
		}
		stats, rounds, err := runBench(eng, inputFS, spec)
		if err == nil && spec.PerRank != nil {
			stats.Record(spec.PerRank)
			spec.PerRank.Add("rank-sec", c.Clock().Now())
		}
		return stats, rounds, err
	})
}

// runRanks runs perRank on every rank of world — rank r on node arena
// arenas[r/rpn] — and folds the ranks' stats, the world's clock and the
// arena peaks into one Result: the tail Run and the MRC matrix share.
func runRanks(world *mpi.World, arenas []*mem.Arena, rpn int,
	perRank func(c *mpi.Comm, arena *mem.Arena) (workloads.StageStats, int, error)) Result {
	var mu sync.Mutex
	var res Result
	err := world.Run(func(c *mpi.Comm) error {
		stats, rounds, err := perRank(c, arenas[c.Rank()/rpn])
		if err != nil {
			return err
		}
		mu.Lock()
		res.SpilledBytes += stats.SpilledBytes
		res.ShuffledBytes += stats.ShuffledBytes
		res.SpillIOSec += stats.SpillIOSec
		res.OverlapSavedSec += stats.OverlapSavedSec
		if rounds > res.Rounds {
			res.Rounds = rounds // identical on every rank for multi-round jobs
		}
		mu.Unlock()
		return nil
	})
	res.Time = world.MaxTime()
	if err != nil {
		res.Err = err
		res.Time = math.NaN()
	}
	var maxPeak int64
	for _, a := range arenas {
		if a.Peak() > maxPeak {
			maxPeak = a.Peak()
		}
	}
	res.PeakPerProc = maxPeak / int64(rpn)
	return res
}

// newMimirEngine builds one rank's Mimir engine the way every simulated
// figure does: the platform's page size and compute costs, and a pool of
// workers — where, unlike core.Config, 0 pins 1 (serial), NOT GOMAXPROCS.
// Host core count may never leak into a simulated result; this is the one
// place that holds.
func newMimirEngine(c *mpi.Comm, arena *mem.Arena, plat *platform.Platform, workers int) *workloads.MimirEngine {
	me := workloads.NewMimirEngine(c, arena)
	me.PageSize = plat.PageSize
	me.CommBuf = plat.PageSize
	me.Costs = plat.Costs()
	me.Workers = max(workers, 1)
	return me
}

// benchKind names each benchmark's row in the driver's job table. OC, the
// one benchmark that is not a driver job, has none.
var benchKind = map[Bench]string{
	WCUniform: driver.JobWordCount, WCWikipedia: driver.JobWordCount, WCZipf: driver.JobWordCount,
	BFS: driver.JobBFS, TeraSort: driver.JobTeraSort, PageRank: driver.JobPageRank, KMeans: driver.JobKMeans,
}

// jobConfig expresses the spec's benchmark as a driver job. The engine knobs
// (Workers, Partitioner, OutOfCore) are not copied: the harness sets them on
// the engines it builds over the shared node arenas.
func (spec Spec) jobConfig() driver.JobConfig {
	kind, ok := benchKind[spec.Bench]
	if !ok {
		kind = spec.Bench.String() // RunRank rejects it as an unknown kind
	}
	cfg := driver.JobConfig{
		Kind: kind, Seed: spec.Seed, Hint: spec.Hint, PR: spec.PR, CPS: spec.CPS,
		TotalBytes: spec.SizeBytes, Rows: spec.Rows, Scale: spec.Scale,
		Points: spec.Points, K: spec.K, Dims: spec.Dims, MaxRounds: spec.MaxRounds,
		UseZipf: spec.Bench == WCZipf, ZipfSkew: spec.Skew, Contention: spec.Contention,
	}
	if spec.Bench == WCWikipedia {
		cfg.Dist = workloads.Wikipedia
	}
	return cfg
}

func runBench(eng workloads.Engine, fs *pfs.FS, spec Spec) (workloads.StageStats, int, error) {
	if spec.Bench != OC {
		return spec.jobConfig().RunRank(eng, fs, nil)
	}
	// Octree clustering is the one benchmark outside the driver's table.
	opts := workloads.StageOpts{}
	if spec.Hint {
		opts.Hint = workloads.OCHint()
	}
	if spec.PR {
		opts.PartialReduce = workloads.WordCountCombine
	}
	if spec.CPS {
		opts.Combiner = workloads.WordCountCombine
	}
	r, err := workloads.RunOctree(eng, fs, workloads.OCConfig{
		TotalPoints: spec.Points, Seed: spec.Seed,
	}, opts)
	return r.Stats, 1, err
}
