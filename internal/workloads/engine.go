package workloads

import (
	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/mrmpi"
	"mimir/internal/pfs"
)

// StageOpts selects the optimizations for one MapReduce stage. The Mimir
// engine honors all of them; the MR-MPI engine supports only Combiner (its
// compress call) and silently has no KV-hint or partial reduction, exactly
// like the original library.
type StageOpts struct {
	// Hint is the KV-hint encoding (Mimir only).
	Hint kvbuf.Hint
	// Combiner enables KV compression for the stage.
	Combiner core.CombineFunc
	// PartialReduce replaces convert+reduce (Mimir only).
	PartialReduce core.CombineFunc
	// Checkpoint enables post-shuffle checkpointing / restore for the stage
	// (Mimir only; see core.Config.Checkpoint).
	Checkpoint *core.Checkpoint
}

// StageStats aggregates one rank's counters for one stage.
type StageStats struct {
	ShuffledBytes int64
	// SpilledBytes is the rank's out-of-core write traffic: MR-MPI page
	// spills, or Mimir container pages evicted under an OutOfCore policy.
	SpilledBytes int64
	MapOutKVs    int64
	MapOutBytes  int64
	OutputKVs    int64
	// OverlapRounds / OverlapSavedSec report how often the overlapped
	// aggregate hid communication behind the map and how much simulated
	// time that saved (Mimir only).
	OverlapRounds   int64
	OverlapSavedSec float64
	// Out-of-core detail (Mimir spill policies only): pages evicted and
	// restored, scan-readahead hits, and the simulated seconds spent on
	// spill I/O.
	SpillEvictions    int64
	SpillRestores     int64
	SpillRestoredByte int64
	SpillPrefetchHits int64
	SpillIOSec        float64
	// Phase times in simulated seconds (map / aggregate / convert+reduce).
	MapTime, AggrTime, ConvertTime, ReduceTime float64
}

// accumulate folds another stage's stats into s (for iterative workloads).
func (s *StageStats) accumulate(o StageStats) {
	s.ShuffledBytes += o.ShuffledBytes
	s.SpilledBytes += o.SpilledBytes
	s.MapOutKVs += o.MapOutKVs
	s.MapOutBytes += o.MapOutBytes
	s.OutputKVs += o.OutputKVs
	s.OverlapRounds += o.OverlapRounds
	s.OverlapSavedSec += o.OverlapSavedSec
	s.SpillEvictions += o.SpillEvictions
	s.SpillRestores += o.SpillRestores
	s.SpillRestoredByte += o.SpillRestoredByte
	s.SpillPrefetchHits += o.SpillPrefetchHits
	s.SpillIOSec += o.SpillIOSec
	s.MapTime += o.MapTime
	s.AggrTime += o.AggrTime
	s.ConvertTime += o.ConvertTime
	s.ReduceTime += o.ReduceTime
}

// Record adds the stage's counters as one rank's samples to a metrics
// summary, so the min/mean/max view exposes rank imbalance in shuffle and
// spill traffic the same way it does for phase times.
func (s StageStats) Record(m *metrics.Summary) {
	m.Add("map-sec", s.MapTime)
	m.Add("aggregate-sec", s.AggrTime)
	m.Add("convert-sec", s.ConvertTime)
	m.Add("reduce-sec", s.ReduceTime)
	m.Add("shuffled-bytes", float64(s.ShuffledBytes))
	m.Add("spilled-bytes", float64(s.SpilledBytes))
	m.Add("spill-evictions", float64(s.SpillEvictions))
	m.Add("spill-restores", float64(s.SpillRestores))
	m.Add("spill-prefetch-hits", float64(s.SpillPrefetchHits))
	m.Add("spill-io-sec", s.SpillIOSec)
}

// Engine runs MapReduce stages on one rank. It abstracts over the Mimir and
// MR-MPI engines so every benchmark is written once — the paper's "we
// ported it to Mimir for our experiments" in reverse.
type Engine interface {
	// RunStage executes map [+ shuffle [+ reduce]] and streams the rank's
	// output KVs to sink. A nil reduceFn makes the stage map-only (output =
	// post-shuffle KVs). The sink's k and v alias engine memory that may be
	// released as soon as the call returns: a sink copies what it keeps.
	RunStage(opts StageOpts, input core.Input, mapFn core.MapFunc, reduceFn core.ReduceFunc,
		sink func(k, v []byte) error) (StageStats, error)
	// Comm returns the rank's communicator.
	Comm() *mpi.Comm
	// Name identifies the engine in experiment output.
	Name() string
}

// MimirEngine runs stages on the Mimir engine (internal/core). Its knobs are
// the embedded core.Config itself — PageSize, CommBuf, OutOfCore, SpillFS,
// Partitioner, Costs and the rest are set on the engine and reach
// every stage's job unchanged. The four per-stage fields (Hint, Combiner,
// PartialReduce, Checkpoint) are overwritten from StageOpts on every
// RunStage; setting them on the engine has no effect.
type MimirEngine struct {
	core.Config
	comm *mpi.Comm
}

// NewMimirEngine creates a Mimir-backed engine for this rank.
func NewMimirEngine(comm *mpi.Comm, arena *mem.Arena) *MimirEngine {
	return &MimirEngine{Config: core.Config{Arena: arena}, comm: comm}
}

// Comm returns the rank's communicator.
func (e *MimirEngine) Comm() *mpi.Comm { return e.comm }

// Name returns "Mimir".
func (e *MimirEngine) Name() string { return "Mimir" }

// RunStage implements Engine.
func (e *MimirEngine) RunStage(opts StageOpts, input core.Input, mapFn core.MapFunc,
	reduceFn core.ReduceFunc, sink func(k, v []byte) error) (StageStats, error) {
	cfg := e.Config
	cfg.Hint = opts.Hint
	cfg.Combiner = opts.Combiner
	cfg.PartialReduce = opts.PartialReduce
	cfg.Checkpoint = opts.Checkpoint
	job := core.NewJob(e.comm, cfg)
	out, err := job.Run(input, mapFn, reduceFn)
	if err != nil {
		return StageStats{}, err
	}
	defer out.Free()
	if sink != nil {
		// The sink is the output's only reader: each page goes back to the
		// arena as soon as the sink has passed it.
		if err := out.Drain(sink); err != nil {
			return StageStats{}, err
		}
	}
	s := out.Stats
	return StageStats{
		ShuffledBytes:     s.ShuffledBytes,
		SpilledBytes:      s.Spill.SpilledBytes,
		MapOutKVs:         s.MapOutKVs,
		MapOutBytes:       s.MapOutBytes,
		OutputKVs:         s.OutputKVs,
		OverlapRounds:     int64(s.OverlapRounds),
		OverlapSavedSec:   s.OverlapSavedSec,
		SpillEvictions:    s.Spill.Evictions,
		SpillRestores:     s.Spill.Restores,
		SpillRestoredByte: s.Spill.RestoredBytes,
		SpillPrefetchHits: s.Spill.PrefetchHits,
		SpillIOSec:        s.Spill.IOSec,
		MapTime:           s.Phases.Map,
		AggrTime:          s.Phases.Aggregate,
		ConvertTime:       s.Phases.Convert,
		ReduceTime:        s.Phases.Reduce,
	}, nil
}

// MRMPIEngine runs stages on the MR-MPI baseline (internal/mrmpi); like
// MimirEngine, its knobs are the embedded engine config's own fields.
type MRMPIEngine struct {
	mrmpi.Config
	comm *mpi.Comm
}

// NewMRMPIEngine creates an MR-MPI-backed engine for this rank. spill is
// the parallel file system that receives out-of-core pages.
func NewMRMPIEngine(comm *mpi.Comm, arena *mem.Arena, spill *pfs.FS) *MRMPIEngine {
	return &MRMPIEngine{Config: mrmpi.Config{Arena: arena, Spill: spill}, comm: comm}
}

// Comm returns the rank's communicator.
func (e *MRMPIEngine) Comm() *mpi.Comm { return e.comm }

// Name returns "MR-MPI".
func (e *MRMPIEngine) Name() string { return "MR-MPI" }

// RunStage implements Engine. KV-hints and partial reduction are not
// supported by MR-MPI and are ignored, as in the original library.
func (e *MRMPIEngine) RunStage(opts StageOpts, input core.Input, mapFn core.MapFunc,
	reduceFn core.ReduceFunc, sink func(k, v []byte) error) (StageStats, error) {
	mr := mrmpi.New(e.comm, e.Config)
	defer mr.Free()
	if err := mr.Map(input, mapFn); err != nil {
		return StageStats{}, err
	}
	if opts.Combiner != nil {
		if err := mr.Compress(opts.Combiner); err != nil {
			return StageStats{}, err
		}
	}
	if err := mr.Aggregate(); err != nil {
		return StageStats{}, err
	}
	if reduceFn != nil {
		if err := mr.Convert(); err != nil {
			return StageStats{}, err
		}
		if err := mr.Reduce(reduceFn); err != nil {
			return StageStats{}, err
		}
	}
	if sink != nil {
		if err := mr.ScanOutput(sink); err != nil {
			return StageStats{}, err
		}
	}
	s := mr.Stats()
	return StageStats{
		ShuffledBytes: s.ShuffledBytes,
		SpilledBytes:  s.SpilledBytes,
		MapOutKVs:     s.MapOutKVs,
		OutputKVs:     s.OutputKVs,
		MapTime:       s.Phases.Map,
		AggrTime:      s.Phases.Aggregate,
		ConvertTime:   s.Phases.Convert,
		ReduceTime:    s.Phases.Reduce,
	}, nil
}
