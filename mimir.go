// Package mimir is a Go reproduction of Mimir, the memory-efficient and
// scalable MapReduce framework for large supercomputing systems of Gao et
// al. (IPDPS 2017). It is a research system built from scratch on the Go
// standard library: an in-process MPI-like runtime stands in for MPICH,
// simulated platform models stand in for the Comet and Mira machines, and
// both the Mimir engine and the MR-MPI baseline are full implementations
// whose memory behavior is tracked byte-for-byte through a node memory
// arena.
//
// A minimal job looks like this:
//
//	world := mimir.NewWorld(4)
//	arena := mimir.NewArena(0) // unlimited node memory
//	err := world.Run(func(c *mimir.Comm) error {
//		job := mimir.NewJob(c, mimir.Config{Arena: arena})
//		out, err := job.Run(input, mapFn, reduceFn)
//		...
//	})
//
// See examples/ for complete programs, internal/expt for the harness that
// regenerates every figure of the paper, and DESIGN.md for the system
// inventory.
package mimir

import (
	"time"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/faultinject"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/platform"
	"mimir/internal/simtime"
	"mimir/internal/spill"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

// Core MapReduce API (see internal/core).
type (
	// Job is one Mimir MapReduce execution on one rank.
	Job = core.Job
	// Config configures a job: node arena, buffer sizes, KV-hint, and the
	// optional partial-reduction and KV-compression callbacks.
	Config = core.Config
	// Record is one input record.
	Record = core.Record
	// Emitter receives KVs from map and reduce callbacks.
	Emitter = core.Emitter
	// MapFunc is the user-defined map callback.
	MapFunc = core.MapFunc
	// ReduceFunc is the user-defined reduce callback.
	ReduceFunc = core.ReduceFunc
	// CombineFunc merges two values of one key (KV compression / partial
	// reduction).
	CombineFunc = core.CombineFunc
	// Input feeds one rank's share of the job input.
	Input = core.Input
	// Output is a rank's share of the job result.
	Output = core.Output
	// Costs are simulated per-operation compute costs.
	Costs = core.Costs
	// Checkpoint enables post-shuffle checkpoint/restart (fault tolerance).
	Checkpoint = core.Checkpoint
	// PhaseTimes is the per-phase simulated time breakdown in Output.Stats.
	PhaseTimes = core.PhaseTimes
	// Stats is the per-rank counter block in Output.Stats (exchange rounds,
	// shuffled bytes, the simulated time the overlapped aggregate saved,
	// spill activity).
	Stats = core.Stats
	// OutOfCore selects the job's memory-pressure policy (see Config).
	OutOfCore = core.OutOfCore
	// SpillGroup coordinates page eviction across the ranks that share one
	// node arena (see Config.SpillGroup).
	SpillGroup = spill.Group
	// SpillStats counts a job's out-of-core activity (Output.Stats.Spill).
	SpillStats = spill.Stats
)

// Key partitioning (see internal/partition). Config.Partitioner selects the
// key→rank strategy; nil keeps the default FNV-1a hash.
type (
	// Partitioner maps keys to destination ranks; planning partitioners
	// (SamplePartitioner) run collectives before the job's first exchange.
	Partitioner = partition.Partitioner
	// HashPartitioner is the default FNV-1a modulo-size partitioner, made
	// explicit.
	HashPartitioner = partition.HashPartitioner
	// SamplePartitioner partitions by sampled weighted key ranges, splitting
	// hot keys across ranks when the job has a commutative PartialReduce.
	SamplePartitioner = partition.SamplePartitioner
	// PartitionFunc adapts a plain key→rank function to a Partitioner.
	PartitionFunc = partition.Func
)

// PartitionerByName resolves "", "hash", or "sample" (the CLI/job-spec
// spelling) to a Partitioner.
var PartitionerByName = partition.ByName

// Out-of-core policies (Config.OutOfCore).
const (
	// Error fails the job with mem.ErrNoMemory when the arena runs out —
	// the paper's behavior.
	Error = core.Error
	// SpillWhenNeeded evicts cold container pages to Config.SpillFS under
	// memory pressure.
	SpillWhenNeeded = core.SpillWhenNeeded
	// SpillAlways additionally writes every page out as soon as it is
	// sealed (write-behind, lowest resident footprint).
	SpillAlways = core.SpillAlways
)

// NewSpillGroup creates an eviction group for the ranks sharing one arena.
func NewSpillGroup() *SpillGroup { return spill.NewGroup() }

// Message passing (see internal/mpi).
type (
	// World is a set of communicating ranks (goroutines).
	World = mpi.World
	// Comm is one rank's communicator.
	Comm = mpi.Comm
	// TCPChildren tracks the worker processes SpawnTCPWorld launched.
	TCPChildren = transport.Children
)

// ErrAborted is the sentinel every rank's pending communication returns once
// any rank aborts the world — including, over the TCP transport, when a
// worker process dies.
var ErrAborted = mpi.ErrAborted

// FaultStats counts the TCP links a rank saw fail; read it from
// World.FaultStats. The TCP transport is fail-stop: a failed link aborts
// the world, and recovery is a fresh mesh and a re-run.
type FaultStats = mpi.FaultStats

// TCPOptionsFromEnv decodes the TCPOptions a parent forwarded through the
// environment (the single decode shared with spawned workers); unset
// variables leave zero defaults. Commands use it to seed flag defaults so
// flags, environment, and spawn-forwarding cannot disagree.
var TCPOptionsFromEnv = transport.OptionsFromEnv

// TCPOptions configures a multi-process world: deadlines, fault injection,
// and wire compression. It is the transport's consolidated Options struct —
// one encode/decode (transport.Options.Env / transport.OptionsFromEnv)
// carries every field to spawned workers, so no launch path can silently
// drop a setting.
type TCPOptions = transport.Options

// faulted wires opts.Faults into cfg (the connection-level hook) and returns
// the injector, or nil when no faults are scheduled.
func faulted(opts TCPOptions, cfg *transport.TCPConfig) (*faultinject.Injector, error) {
	spec, err := faultinject.ParseSpec(opts.Faults)
	if err != nil {
		return nil, err
	}
	if spec.Empty() {
		return nil, nil
	}
	inj := faultinject.New(spec, cfg.Rank)
	cfg.WrapConn = inj.WrapConn
	return inj, nil
}

// SpawnTCPWorld makes this process rank 0 of a size-rank multi-process world
// and launches size-1 copies of this binary on the loopback interface as the
// other ranks. The copies must call TCPWorldFromEnv early and run the same
// job. Ranks run on wall-clock time; byte movement is real TCP. Close the
// world when done, then Wait the children.
func SpawnTCPWorld(size int) (*World, *TCPChildren, error) {
	return SpawnTCPWorldOpts(size, TCPOptions{})
}

// SpawnTCPWorldOpts is SpawnTCPWorld with options configured. The deadline,
// fault spec and compression travel to the workers through the environment,
// so the whole world — parent and children — shares one configuration.
func SpawnTCPWorldOpts(size int, opts TCPOptions) (*World, *TCPChildren, error) {
	cfg := transport.TCPConfig{Rank: 0}
	inj, err := faulted(opts, &cfg)
	if err != nil {
		return nil, nil, err
	}
	tr, children, err := transport.SpawnLocalOpts(size, transport.SpawnOptions{
		Options:  opts,
		WrapConn: cfg.WrapConn,
	})
	if err != nil {
		return nil, nil, err
	}
	var t transport.Transport = tr
	if inj != nil {
		t = inj.Wrap(tr)
	}
	return mpi.NewWorld(mpi.Config{Transport: t}), children, nil
}

// TCPWorldFromEnv joins the multi-process world a parent SpawnTCPWorld (or
// any launcher setting the MIMIR_TCP_* environment) created, including any
// fault-injection spec the parent forwarded. The second
// return is false when this process was not launched as a worker.
func TCPWorldFromEnv() (*World, bool, error) {
	cfg, ok, err := transport.FromEnv()
	if !ok || err != nil {
		return nil, ok, err
	}
	inj, err := faulted(TCPOptions{Faults: transport.FaultsFromEnv()}, &cfg)
	if err != nil {
		return nil, true, err
	}
	tr, err := transport.NewTCP(cfg)
	if err != nil {
		return nil, true, err
	}
	var t transport.Transport = tr
	if inj != nil {
		t = inj.Wrap(tr)
	}
	return mpi.NewWorld(mpi.Config{Transport: t}), true, nil
}

// NewTCPWorld attaches this process to a multi-process world as the given
// rank: rank 0 listens on addr (e.g. ":9000") and blocks until the size-1
// workers dial in, every other rank dials addr — the explicit-rendezvous
// path for launches across machines or terminals. A successful return means
// the full mesh is up.
func NewTCPWorld(addr string, rank, size int, deadline time.Duration) (*World, error) {
	return NewTCPWorldOpts(addr, rank, size, TCPOptions{Deadline: deadline})
}

// NewTCPWorldOpts is NewTCPWorld with fault handling configured. Unlike the
// spawn path there is no environment forwarding: every process of an
// explicit rendezvous must be launched with the same options.
func NewTCPWorldOpts(addr string, rank, size int, opts TCPOptions) (*World, error) {
	cfg := opts.TCPConfig(addr, rank, size)
	inj, err := faulted(opts, &cfg)
	if err != nil {
		return nil, err
	}
	tr, err := transport.NewTCP(cfg)
	if err != nil {
		return nil, err
	}
	var t transport.Transport = tr
	if inj != nil {
		t = inj.Wrap(tr)
	}
	return mpi.NewWorld(mpi.Config{Transport: t}), nil
}

// KV encoding (see internal/kvbuf).
type (
	// Hint is the KV-hint encoding declaration for keys and values.
	Hint = kvbuf.Hint
	// LenMode describes one side's length encoding.
	LenMode = kvbuf.LenMode
	// ValueIter iterates the values of one key in a reduce callback.
	ValueIter = kvbuf.ValueIter
)

// Memory accounting (see internal/mem).
type (
	// Arena is one compute node's accounted memory pool.
	Arena = mem.Arena
)

// ErrNoMemory is the sentinel wrapped by every out-of-memory failure: a job
// on a full arena under the Error policy fails with an error satisfying
// errors.Is(err, ErrNoMemory).
var ErrNoMemory = mem.ErrNoMemory

// Simulated parallel file system (see internal/pfs): job inputs and the
// spill target for the out-of-core policies.
type (
	// FS is a simulated parallel file system.
	FS = pfs.FS
	// FSConfig sets its bandwidth, latency, and contention model.
	FSConfig = pfs.Config
)

// NewFS creates a simulated parallel file system.
func NewFS(cfg FSConfig) *FS { return pfs.New(cfg) }

// Platform models (see internal/platform).
type (
	// Platform describes a machine (node memory, network, file system,
	// compute costs).
	Platform = platform.Platform
)

// NewWorld creates an in-process world of n ranks with negligible network
// costs. For modeled platforms use NewWorldOn.
func NewWorld(n int) *World {
	return mpi.NewWorld(mpi.Config{Size: n, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
}

// NewWorldOn creates a world of n ranks whose communication is charged
// against the platform's network model.
func NewWorldOn(p *Platform, n int) *World {
	return mpi.NewWorld(mpi.Config{Size: n, Net: p.Net})
}

// NewArena returns a node memory pool with the given capacity in bytes
// (0 = unlimited).
func NewArena(capacity int64) *Arena { return mem.NewArena(capacity) }

// NewJob creates a Mimir job for this rank.
func NewJob(c *Comm, cfg Config) *Job { return core.NewJob(c, cfg) }

// SliceInput feeds a fixed record list (tests, small inputs, in-situ data).
func SliceInput(recs []Record) Input { return core.SliceInput(recs) }

// FileInput reads one rank's line-aligned split of a file on the simulated
// parallel file system (the paper's "files from disk" input source).
var FileInput = core.FileInput

// MultiFileInput reads the per-rank splits of several files in order.
var MultiFileInput = core.MultiFileInput

// Uint64Bytes encodes n as the conventional 8-byte little-endian value.
func Uint64Bytes(n uint64) []byte { return core.Uint64Bytes(n) }

// BytesUint64 decodes an 8-byte little-endian value.
func BytesUint64(b []byte) uint64 { return core.BytesUint64(b) }

// KV-hint constructors.
var (
	// Varlen stores an explicit 4-byte length (the default).
	Varlen = kvbuf.Varlen
	// Fixed declares a constant length; no header is stored.
	Fixed = kvbuf.Fixed
	// StrZ declares NUL-free string data, stored NUL-terminated (the
	// paper's reserved -1 length).
	StrZ = kvbuf.StrZ
	// DefaultHint is explicit lengths on both sides (8-byte header per KV).
	DefaultHint = kvbuf.DefaultHint
)

// Platform presets.
var (
	// Comet models SDSC's Comet cluster (24 cores, 128 GB/node, scaled).
	Comet = platform.Comet
	// Mira models Argonne's IBM BG/Q Mira (16 cores, 16 GB/node, scaled).
	Mira = platform.Mira
	// Laptop is an unconstrained platform for examples and tests.
	Laptop = platform.Laptop
)

// Distributed job workloads (internal/workloads) and the generic job driver
// (internal/driver): the multi-round jobs every entry point — examples,
// mimir-worker, the mimird service — runs over deterministic synthetic
// corpora.
type (
	// JobConfig describes one distributed job of any kind for RunJob.
	JobConfig = driver.JobConfig
	// TeraSortConfig parameterizes the distributed sample sort.
	TeraSortConfig = workloads.TeraSortConfig
	// PageRankConfig parameterizes fixed-point PageRank over the synthetic
	// power-law graph.
	PageRankConfig = workloads.PageRankConfig
	// KMeansConfig parameterizes integer k-means over the seeded point cloud.
	KMeansConfig = workloads.KMeansConfig
	// MultiRound controls an iterative job's rounds: caps, convergence
	// threshold, per-round checkpoints, and the round hook.
	MultiRound = workloads.MultiRound
)

// Job kinds RunJob dispatches on.
const (
	JobWordCount = driver.JobWordCount
	JobTeraSort  = driver.JobTeraSort
	JobPageRank  = driver.JobPageRank
	JobKMeans    = driver.JobKMeans
	JobBFS       = driver.JobBFS
	JobOctree    = driver.JobOctree
)

var (
	// RunJob runs a JobConfig on every rank of a world and gathers the
	// canonical byte-identical result at rank 0.
	RunJob = driver.RunJob
	// JobKinds lists every kind RunJob accepts.
	JobKinds = driver.JobKinds
	// VerifyTeraSort is the linear-time oracle for sorted terasort output.
	VerifyTeraSort = workloads.VerifyTeraSort
)
