// Package core implements Mimir, the paper's memory-efficient MapReduce
// engine over MPI (Section III). Its workflow has four phases — map,
// aggregate, convert, reduce — but unlike MR-MPI the aggregate and convert
// phases are implicit: the user-defined map inserts KVs directly into a
// per-destination-partitioned send buffer, and whenever a partition fills,
// the map is suspended and an Alltoallv round drains every rank's send
// buffer into dynamically grown KV containers. Optional optimizations are
// the paper's partial reduction (III-C1), KV compression (III-C2), and
// KV-hint (III-C3).
package core

import (
	"fmt"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/spill"
)

// Default buffer sizes: the paper's 64 MB page and 64 MB communication
// buffer, scaled 1024x.
const (
	DefaultPageSize = 64 << 10
	DefaultCommBuf  = 64 << 10
	// MinPartition is the floor on a send-buffer partition. The paper's
	// per-rank 64 MB buffer divided by up to 16,384 ranks still leaves 4 KB
	// partitions; under our 1024x size scaling the same division would fall
	// below a single KV, so partitions never shrink beneath this floor. All
	// benchmark KVs fit in 128 bytes (words are capped at ~20 characters).
	MinPartition = 128
)

// OutOfCore selects the engine's response to node memory pressure.
type OutOfCore int

const (
	// Error is the paper's Mimir: when the containers cannot grow, the job
	// fails with mem.ErrNoMemory (the missing data points in the paper's
	// figures). The default.
	Error OutOfCore = iota
	// SpillWhenNeeded evicts cold sealed container pages to Config.SpillFS
	// once arena usage passes the watermark, keeping the dynamic-paged
	// design but surviving datasets larger than memory — the analogue of
	// MR-MPI's spill-when-needed out-of-core mode.
	SpillWhenNeeded
	// SpillAlways additionally writes every container page out the moment
	// it is sealed, minimizing the resident footprint at maximal I/O cost —
	// the analogue of MR-MPI's spill-always mode.
	SpillAlways
)

// String returns the conventional name of the policy.
func (o OutOfCore) String() string {
	switch o {
	case SpillWhenNeeded:
		return "spill-when-needed"
	case SpillAlways:
		return "spill-always"
	}
	return "error"
}

// Emitter receives KVs produced by map and reduce callbacks.
type Emitter interface {
	// Emit stores one KV. The engine copies k and v before returning.
	Emit(k, v []byte) error
}

// Record is one input record. File and in-situ sources fill only Val (the
// record bytes); KV sources from a previous MapReduce stage fill both.
type Record struct {
	Key, Val []byte
}

// MapFunc is the user-defined map callback: it transforms one input record
// into any number of intermediate KVs.
type MapFunc func(rec Record, emit Emitter) error

// ReduceFunc is the user-defined reduce callback: it folds the value list of
// one unique key into any number of output KVs. key, vals and every value
// vals yields are valid only during the call: they alias container memory,
// and the engine reuses the iterator for the next key. Emit copies what it
// is given.
type ReduceFunc func(key []byte, vals *kvbuf.ValueIter, emit Emitter) error

// CombineFunc merges two values of the same key into one. It backs both the
// KV compression callback (applied in the map phase, before aggregate) and
// the partial-reduction callback (applied in place of convert+reduce).
// existing is the engine's own copy of the value merged so far — usually
// the hash-bucket entry itself — and is the callback's to overwrite: a
// merge that keeps the length should write its result there and return it,
// which costs no copy and no allocation (workloads.Int64VecAdd does).
// incoming is read-only and valid only during the call. A result returned
// in any other slice is copied by the engine before the callback runs again.
type CombineFunc func(key, existing, incoming []byte) ([]byte, error)

// Input feeds a rank's share of the job input, one record at a time. Each
// rank gets its own Input closure; it typically wraps a workload generator
// that also charges simulated parallel-file-system read time.
type Input func(emit func(rec Record) error) error

// Costs are the effective per-operation compute costs charged to the
// simulated clock (see internal/platform for the calibrated machine
// presets). A zero Costs charges nothing, which is fine for tests.
type Costs struct {
	MapPerByte    float64 // per input byte passed to the map callback
	KVPerByte     float64 // per intermediate KV byte inserted, sent, or received
	PerRecord     float64 // fixed per-KV overhead
	ReducePerByte float64 // per byte processed by convert and reduce
}

// Config configures a Mimir job.
type Config struct {
	// Arena is the node memory pool all buffers are charged to. Required.
	Arena *mem.Arena
	// PageSize is the unit of data-buffer allocation (default 64 KiB,
	// standing in for the paper's 64 MB).
	PageSize int
	// CommBuf is the communication buffer budget. The aggregate splits it
	// into thirds: two send partition sets and the receive set. A full send
	// set is posted nonblocking (Ialltoallv) while the map keeps filling the
	// other, so an overlapped round costs max(compute, comm) instead of
	// their sum.
	CommBuf int
	// Hint is the KV-hint encoding used for intermediate data.
	Hint kvbuf.Hint
	// Combiner, if set, enables the KV compression optimization: map output
	// is folded into a hash bucket and the aggregate phase is delayed until
	// the map completes, maximizing compression (Section III-C2). Under a
	// spill policy on a capped arena the bucket, which cannot spill, is
	// instead drained into the aggregate whenever it outgrows its share of
	// the headroom above the spill watermark.
	Combiner CombineFunc
	// PartialReduce, if set, replaces the convert and reduce phases: KVs are
	// folded into a hash bucket as they arrive from the network, so the full
	// KMV set never needs to be resident (Section III-C1). The job's
	// ReduceFunc is not used when PartialReduce is set.
	PartialReduce CombineFunc
	// Checkpoint, if set, persists each rank's post-aggregate state to the
	// parallel file system and lets an identically configured re-run resume
	// from it, skipping input, map, and aggregate (fault tolerance in the
	// style of the authors' FT-MRMPI).
	Checkpoint *Checkpoint
	// OutOfCore selects the response to memory pressure (see OutOfCore).
	// The non-default policies require SpillFS and register every KV/KMV
	// container page with a per-rank spill.Store; communication buffers and
	// hash buckets never spill and live in the arena headroom above the
	// watermark.
	OutOfCore OutOfCore
	// SpillFS is the parallel file system that receives evicted pages.
	// Required when OutOfCore is not Error.
	SpillFS *pfs.FS
	// SpillGroup coordinates eviction across the ranks that share this
	// rank's Arena: a rank under memory pressure may then evict another
	// rank's cold pages, resolving pressure node-wide instead of failing
	// while peers sit on cold data. All ranks sharing an Arena should pass
	// the same group. Optional; nil confines eviction to the rank's own
	// pages.
	SpillGroup *spill.Group
	// Workers is kept so existing configurations still compile; a rank runs
	// map, aggregate, convert and reduce on one goroutine, as the paper's
	// one-rank-per-core MPI layout does, and more cores are used by running
	// more ranks. 0 and 1 both mean one goroutine; any other value makes
	// Job.Run fail.
	Workers int
	// Partitioner overrides the strategy that assigns keys to ranks ("Users
	// can provide alternative hash functions that suit their needs"). Nil
	// uses FNV-1a hashing of the key bytes (partition.HashPartitioner);
	// partition.Func adapts a plain key→rank function; a planning
	// partitioner such as partition.SamplePartitioner stages early map
	// output, samples it, and plans weighted range boundaries on the job's
	// collectives before the first exchange. Destinations must be in
	// [0, nranks) and identical on every rank.
	Partitioner partition.Partitioner
	// Costs are the simulated compute costs.
	Costs Costs
}

func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = DefaultPageSize
	}
	if c.CommBuf <= 0 {
		c.CommBuf = DefaultCommBuf
	}
	zero := kvbuf.Hint{}
	if c.Hint == zero {
		c.Hint = kvbuf.DefaultHint()
	}
	return c
}

// CheckWorkers returns an error naming field unless workers is 0 or 1: a
// rank is one goroutine, and more cores are used by running more ranks.
func CheckWorkers(field string, workers int) error {
	if workers == 0 || workers == 1 {
		return nil
	}
	return fmt.Errorf("%s = %d: a rank runs on one goroutine; use more ranks (-inproc N, -spawn N or more mimird seats) for more cores", field, workers)
}
