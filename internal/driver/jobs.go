package driver

import (
	"bytes"
	"fmt"
	"sort"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/workloads"
)

// Job kinds RunJob dispatches on.
const (
	JobWordCount = "wordcount"
	JobTeraSort  = "terasort"
	JobPageRank  = "pagerank"
	JobKMeans    = "kmeans"
	JobBFS       = "bfs"
	JobOctree    = "octree"
)

// JobConfig describes one distributed job of any kind. Every input is
// regenerated per rank from (seed, rank, size), so no input distribution
// step is needed, any two worlds of the same size and config process the
// same data, and the gathered output is byte-identical whatever transport,
// process layout, worker count, or spill policy ran it.
type JobConfig struct {
	// Kind selects the job (see JobKinds; "" means wordcount).
	Kind string
	Seed uint64
	// Optimizations (see workloads.StageOpts). Each kind substitutes its own
	// combiner for PR and CPS; a kind whose records must survive as records
	// (terasort rows, BFS candidate parents under PR) ignores the flag. They
	// never change the output bytes, with one exception: BFS under CPS keeps
	// one candidate parent per sender and so may settle on a different —
	// equally valid, equally deterministic — parents tree.
	Hint, PR, CPS bool
	// Workers is each rank's worker-pool size (see core.Config.Workers;
	// 0 defaults to GOMAXPROCS, 1 is serial).
	Workers int
	// MemBytes caps each rank's engine arena (0 = unlimited). The job
	// service sets it to the job's admitted memory floor divided by the
	// world size, so a job that outgrows its reservation fails itself
	// instead of eating into memory promised to other jobs.
	MemBytes int64
	// PageSize / CommBuf override the engine's container page and exchange
	// buffer sizes (0 = engine defaults). Tests shrink them to create spill
	// pressure with small corpora.
	PageSize, CommBuf int
	// Partitioner names the key→rank strategy ("" or "hash" = FNV-1a,
	// "sample" = sampled weighted ranges; see partition.ByName). TeraSort
	// always sorts on the sampling partitioner and the graph jobs always
	// keep vertex state on the hash, whatever is named here; wordcount and
	// k-means honor it fully.
	Partitioner string
	// OutOfCore selects the engines' memory-pressure policy. The spill
	// policies get a per-process simulated PFS as the spill target, so
	// multi-round jobs exercise evict/restore across round boundaries.
	OutOfCore core.OutOfCore
	// Checkpoint enables post-shuffle checkpoint/restore (see
	// core.Config.Checkpoint): wordcount checkpoints its one stage under
	// the name, multi-round jobs one per round under "<Name>.r<N>" (see
	// workloads.MultiRound). A restored run's output is byte-identical to a
	// fresh one at the same world size; the elastic job service
	// repartitions wordcount checkpoints when the world resizes.
	Checkpoint *core.Checkpoint
	// CheckpointEvery thins the round-checkpoint cadence (multi-round jobs).
	CheckpointEvery int
	// OnRound, when non-nil, runs on every rank at each round boundary of a
	// multi-round job — the job service's mid-iteration crash hook.
	OnRound func(rank, round int) error

	// WordCount corpus: Dist over TotalBytes, or — with UseZipf — the
	// parameterized zipf generator at ZipfSkew with Contention diverted to
	// the hottest key (workloads.ZipfTextInput).
	Dist       workloads.Distribution
	TotalBytes int64
	UseZipf    bool
	ZipfSkew   float64
	Contention float64

	// TeraSort: total rows (default 1<<13).
	Rows int64
	// Graph jobs: 2^Scale vertices (default 8), EdgeFactor edges per vertex.
	Scale      int
	EdgeFactor int
	// k-means and octree: total points (default 1<<12); k-means geometry.
	Points  int64
	K, Dims int
	// MaxRounds caps iterative jobs and octree's refinement depth (0 =
	// workload default).
	MaxRounds int
}

// kind resolves the job's row of the kind table ("" means wordcount).
func (c JobConfig) kind() (*kind, error) {
	name := c.Kind
	if name == "" {
		name = JobWordCount
	}
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i], nil
		}
	}
	return nil, fmt.Errorf("driver: unknown job kind %q (want one of %v)", c.Kind, JobKinds())
}

// Validate rejects a job description no world could run: an unknown kind,
// distribution or partitioner name, or a corpus parameter out of range.
// RunJob, the job service's admission and the CLIs all share this check.
func (c JobConfig) Validate() error {
	if _, err := c.kind(); err != nil {
		return err
	}
	if c.Dist != workloads.Uniform && c.Dist != workloads.Wikipedia {
		return fmt.Errorf("driver: unknown distribution %d", int(c.Dist))
	}
	if c.UseZipf && c.ZipfSkew < 0 {
		return fmt.Errorf("driver: negative zipf skew %v", c.ZipfSkew)
	}
	if c.Contention < 0 || c.Contention > 1 {
		return fmt.Errorf("driver: contention %v out of [0, 1]", c.Contention)
	}
	_, err := partition.ByName(c.Partitioner)
	return err
}

// Iterative reports whether the job's kind runs a round loop (and so has
// round boundaries for OnRound and per-round checkpoints).
func (c JobConfig) Iterative() bool {
	k, err := c.kind()
	return err == nil && k.iterative
}

// KVHint is the encoding the job's intermediate KVs — and therefore its
// checkpoint files — use: the kind's hint when Hint is on, else the default
// variable-length encoding.
func (c JobConfig) KVHint() kvbuf.Hint {
	if k, err := c.kind(); err == nil && c.Hint {
		return k.hint(&c)
	}
	return kvbuf.DefaultHint()
}

// NewEngine builds one rank's Mimir engine over arena from the job's engine
// knobs — the one constructor RunJob and the experiment harness share, so a
// JobConfig knob reaches the engine the same way whoever runs the job. part
// is the resolved Partitioner name and spillFS the spill policies' target.
func (c JobConfig) NewEngine(comm *mpi.Comm, arena *mem.Arena, part partition.Partitioner,
	spillFS *pfs.FS) *workloads.MimirEngine {
	eng := workloads.NewMimirEngine(comm, arena)
	eng.PageSize = c.PageSize
	eng.CommBuf = c.CommBuf
	eng.Workers = c.Workers
	eng.Partitioner = part
	eng.OutOfCore = c.OutOfCore
	eng.SpillFS = spillFS
	return eng
}

// RunRank runs the job's stages on one rank's engine: the single place a
// JobConfig becomes stage options and a workload call. fs (nil = free)
// charges input reading. With out non-nil the rank's share of the canonical
// output (see RunJob) is appended to it and result checks outside the timed
// kernel (BFS tree validation) run; with out nil the job is measured only.
// It returns the rank's stage stats and the executed round count.
func (c JobConfig) RunRank(e workloads.Engine, fs *pfs.FS, out *bytes.Buffer) (workloads.StageStats, int, error) {
	k, err := c.kind()
	if err != nil {
		return workloads.StageStats{}, 0, err
	}
	if c.Rows <= 0 {
		c.Rows = 1 << 13
	}
	if c.Scale <= 0 {
		c.Scale = 8
	}
	if c.Points <= 0 {
		c.Points = 1 << 12
	}
	opts := workloads.StageOpts{Hint: c.KVHint()}
	if c.PR {
		opts.PartialReduce = k.pr
	}
	if c.CPS {
		opts.Combiner = k.cps
	}
	mr := workloads.MultiRound{Checkpoint: c.Checkpoint, CheckpointEvery: c.CheckpointEvery}
	if c.OnRound != nil {
		rank := e.Comm().Rank()
		mr.OnRound = func(round int) error { return c.OnRound(rank, round) }
	}
	return k.run(e, fs, &c, opts, mr, out)
}

// RunJob runs cfg on every rank of world and gathers the canonical result
// at rank 0: the returned buffer is non-nil only on the process hosting rank
// 0 and is byte-identical for a given (cfg, world size) regardless of
// transport or process layout. When sum is non-nil, every local rank records
// its stage stats and total time into it (the per-rank distribution view).
// Canonical formats, one line per record, lexically sorted:
//
//	wordcount: "<word> <count>"           — one line per distinct word
//	terasort: "<key hex> <payload hex>"  — one line per row; the lexical
//	          sort of fixed-width hex equals key order, so the output is
//	          the globally sorted row sequence
//	pagerank: "<vertex %016x> <score>"   — score in fixed-point units
//	kmeans:   "<cluster %04d> <coords> n=<count>" (rank 0 only: the
//	          all-gathered table is global)
//	bfs:      "<vertex %016x> <parent %016x>" over visited vertices
//	octree:   "levels=<n> dense=<deepest level> total_dense=<all levels>"
//	          (rank 0 only: every rank holds the all-gathered dense sets)
func RunJob(world *mpi.World, cfg JobConfig, sum *metrics.Summary) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	part, err := partition.ByName(cfg.Partitioner)
	if err != nil {
		return nil, err
	}
	// The spill policies need a spill target; each process simulates its
	// own PFS (what pages it writes never affects what the job computes).
	var spillFS *pfs.FS
	if cfg.OutOfCore != core.Error {
		spillFS = pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	}
	var out []byte
	err = world.Run(func(c *mpi.Comm) error {
		eng := cfg.NewEngine(c, mem.NewArena(cfg.MemBytes), part, spillFS)
		var mine bytes.Buffer
		stats, _, err := cfg.RunRank(eng, nil, &mine)
		if err != nil {
			return err
		}
		if sum != nil {
			stats.Record(sum)
			sum.Add("rank-sec", c.Clock().Now())
		}
		gathered, err := c.Gatherv(mine.Bytes(), 0)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		// Ranks hold disjoint key sets in engine order; one global sort
		// makes the output canonical.
		out = canonicalize(gathered)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sum != nil {
		recordFaultStats(world, sum)
	}
	if out == nil && len(world.LocalRanks()) > 0 && world.LocalRanks()[0] == 0 {
		out = []byte{}
	}
	return out, nil
}

// canonicalize splits gathered per-rank buffers into lines and sorts them
// into the one canonical global order.
func canonicalize(gathered [][]byte) []byte {
	var lines []string
	for _, buf := range gathered {
		for _, l := range bytes.Split(buf, []byte{'\n'}) {
			if len(l) > 0 {
				lines = append(lines, string(l))
			}
		}
	}
	sort.Strings(lines)
	var all bytes.Buffer
	for _, l := range lines {
		all.WriteString(l)
		all.WriteByte('\n')
	}
	return all.Bytes()
}

// recordFaultStats appends the world's fault-recovery counters to sum:
// a run that needed reconnects still produced byte-identical output, and
// these counters are the proof it wasn't free.
func recordFaultStats(world *mpi.World, sum *metrics.Summary) {
	if fs, ok := world.FaultStats(); ok {
		sum.Add("net-link-failures", float64(fs.LinkFailures))
		sum.Add("net-reconnects", float64(fs.Reconnects))
		sum.Add("net-dial-retries", float64(fs.DialRetries))
		sum.Add("net-replayed-frames", float64(fs.ReplayedFrames))
		sum.Add("net-replayed-bytes", float64(fs.ReplayedBytes))
	}
}
