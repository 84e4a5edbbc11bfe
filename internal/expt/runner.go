// Package expt is the experiment harness that regenerates every figure of
// the paper's evaluation (Section IV). A sweep is data — a []Cell, each
// cell a driver.JobConfig on a platform — and one loop (RunCells over Run)
// executes it; each figure function returns Figures whose rows mirror the
// paper's x-axis sweep and whose series mirror the paper's lines.
// cmd/mimir-bench prints them and bench_test.go exposes one testing.B
// benchmark per figure.
//
// Scaling: all sizes are 1024x smaller than the paper's (see
// internal/platform); row labels keep the paper-scale names, so the row
// labeled "1G" runs a 1 MiB dataset against a 128 MiB "128 GB" node.
package expt

import (
	"math"
	"sync"

	"mimir/internal/driver"
	"mimir/internal/mem"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/mrmpi"
	"mimir/internal/partition"
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

// Spec describes one experimental run: a driver job (the embedded JobConfig
// — kind, dataset, optimizations and engine knobs, exactly as RunJob reads
// them) plus what only the harness knows: the platform and its shape, and
// which engine runs the job. Two JobConfig fields read differently here:
// a zero PageSize / CommBuf is the platform's page size, and MemBytes, when
// set, replaces the platform's node memory with that much per rank. The
// engine knobs are Mimir's; MR-MPI honors only CPS, as in the original
// library.
type Spec struct {
	driver.JobConfig

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
	// Mimir container evictions under a spill OutOfCore policy (0 for
	// Mimir's default Error policy).
	SpilledBytes int64
	// ShuffledBytes sums exchange traffic over all ranks and stages.
	ShuffledBytes int64
	// Rounds is the executed round count of the shared round loop (1 for
	// the kinds that do not run it).
	Rounds int
	// RoundPeaks[i] is PeakPerProc as of the end of round i (sampled at the
	// next round's barrier; the last entry is the final peak). The arena
	// peak is monotone, so the series shows which round drives the job's
	// memory footprint.
	RoundPeaks []int64
	// SpillIOSec sums, over all ranks, the simulated seconds spent on
	// Mimir's spill I/O (0 for MR-MPI, whose spill time is inside Time).
	SpillIOSec float64
	// OverlapSavedSec sums, over all ranks, the simulated seconds the
	// overlapped aggregate saved by hiding exchange rounds behind the map
	// (0 for MR-MPI).
	OverlapSavedSec float64
	// Err is non-nil if the run failed (typically out of memory).
	Err error
}

// InMemory reports whether the run completed without touching the I/O
// subsystem — the paper's criterion for a valid performance point.
func (r Result) InMemory() bool { return r.Err == nil && r.SpilledBytes == 0 }

// Failed reports whether the run could not complete at all.
func (r Result) Failed() bool { return r.Err != nil }

// Cell is one point of a sweep, as data: the figure line (Series) and x
// value it plots at, and the spec to run. RunCells fills Result.
type Cell struct {
	Series, X string
	Spec      Spec
	Result    Result
}

// RunCells runs every cell in order — the one loop behind every figure and
// matrix — and returns the same cells, measured.
func RunCells(cells []Cell) []Cell {
	for i := range cells {
		cells[i].Result = Run(cells[i].Spec)
	}
	return cells
}

// Run executes one spec on a fresh in-process world and gathers metrics.
func Run(spec Spec) Result {
	plat, cfg := spec.Plat, spec.JobConfig
	rpn := spec.RanksPerNode
	if rpn <= 0 {
		rpn = plat.CoresPerNode
	}
	part, err := partition.ByName(cfg.Partitioner)
	if err != nil {
		return Result{Err: err, Time: math.NaN()}
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = plat.PageSize
	}
	if cfg.CommBuf == 0 {
		cfg.CommBuf = plat.PageSize
	}

	// One memory arena per node; the node's memory is shared by its ranks.
	// Per-process budget scales with ranks per node so that reducing the
	// rank count (for tractability) does not inflate per-node memory.
	nodeMem := plat.NodeMemory
	if cfg.MemBytes > 0 {
		nodeMem = cfg.MemBytes * int64(rpn)
	}
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

	// tops[rank][i] is the rank's node-arena peak at the top of round i;
	// each rank goroutine appends only to its own slice.
	tops := make([][]int64, spec.Nodes*rpn)
	onRound := cfg.OnRound
	cfg.OnRound = func(rank, round int) error {
		tops[rank] = append(tops[rank], arenas[rank/rpn].Peak())
		if onRound != nil {
			return onRound(rank, round)
		}
		return nil
	}

	world := mpi.NewWorld(mpi.Config{Size: spec.Nodes * rpn, Net: plat.Net})
	var mu sync.Mutex
	var res Result
	err = world.Run(func(c *mpi.Comm) error {
		node := c.Rank() / rpn
		var eng workloads.Engine
		switch spec.Engine {
		case Mimir:
			me := cfg.NewEngine(c, arenas[node], part, spillFS)
			me.SpillGroup = groups[node]
			me.Costs = plat.Costs()
			eng = me
		case MRMPI:
			mre := workloads.NewMRMPIEngine(c, arenas[node], spillFS)
			mre.PageSize = spec.MRMPIPage
			if mre.PageSize <= 0 {
				mre.PageSize = plat.PageSize
			}
			mre.Mode = spec.MRMPIMode
			mre.Costs = plat.Costs()
			eng = mre
		}
		stats, rounds, err := cfg.RunRank(eng, inputFS, nil)
		if err != nil {
			return err
		}
		if spec.PerRank != nil {
			stats.Record(spec.PerRank)
			spec.PerRank.Add("rank-sec", c.Clock().Now())
		}
		mu.Lock()
		res.SpilledBytes += stats.SpilledBytes
		res.ShuffledBytes += stats.ShuffledBytes
		res.SpillIOSec += stats.SpillIOSec
		res.OverlapSavedSec += stats.OverlapSavedSec
		res.Rounds = rounds // identical on every rank
		mu.Unlock()
		return nil
	})
	res.Time = world.MaxTime()
	if err != nil {
		res.Err = err
		res.Time = math.NaN()
	}
	// The end of round i is the top of round i+1; the last round — and any
	// round no hook sampled — ends at the final peak.
	res.RoundPeaks = make([]int64, res.Rounds)
	for rank, top := range tops {
		final := arenas[rank/rpn].Peak()
		res.PeakPerProc = max(res.PeakPerProc, final/int64(rpn))
		for r := range res.RoundPeaks {
			v := final
			if r+1 < len(top) {
				v = top[r+1]
			}
			res.RoundPeaks[r] = max(res.RoundPeaks[r], v/int64(rpn))
		}
	}
	return res
}
