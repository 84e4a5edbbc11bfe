package core

import (
	"encoding/binary"
	"fmt"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/simtime"
	"mimir/internal/spill"
)

// Job is one Mimir MapReduce execution on one rank. Create it with NewJob
// and execute with Run. A Job is single-use.
type Job struct {
	comm *mpi.Comm
	cfg  Config

	// Send buffer state: nbuf sets of one partition per destination rank.
	// A full set is posted nonblocking while the map keeps filling the
	// other.
	sendBuf  *mem.Page
	active   int // index of the set the map is filling
	partSize int
	partOffs [][]int // per-set write offset within each partition
	// sendSlices is buildSend's reusable per-destination header array: the
	// exchange copies the send payloads at post time, so the array can be
	// repopulated every round instead of reallocated.
	sendSlices [][]byte
	// pending is the in-flight exchange of the inactive set.
	pending   *mpi.AlltoallvRequest
	inputDone bool

	// destination of received KVs: either a KV container (core workflow) or
	// the partial-reduction bucket.
	recvKVC *kvbuf.KVC
	prBkt   *kvbuf.Bucket
	// cpsBkt is the KV compression bucket, when enabled. cpsBudget is the
	// bucket size past which it drains into the send buffer (0: never, so
	// the aggregate waits for the whole map).
	cpsBkt    *kvbuf.Bucket
	cpsBudget int64

	// Partition planning state. asn is the job's key→rank assignment (nil
	// means legacy FNV-1a hashing). A planning partitioner stages early map
	// output in planStage until the plan runs; splitSeq numbers a split
	// key's emissions so they round-robin over the key's split set.
	asn         partition.Assignment
	planPending bool
	planStage   *kvbuf.KVC
	splitSeq    map[string]uint64

	// store is the rank's out-of-core page store (nil under OutOfCore:
	// Error). All KV/KMV container pages of this job register with it; it
	// outlives the job as long as the Output holds spilled pages, removing
	// its spill file when the last page is freed.
	store *spill.Store

	stats Stats
}

// PhaseTimes breaks a rank's simulated job time down by workflow phase.
// Because Mimir interleaves the map and aggregate phases, Map counts the
// time between exchanges and Aggregate the time inside them.
type PhaseTimes struct {
	Map, Aggregate, Convert, Reduce float64
}

// Total returns the summed phase time.
func (p PhaseTimes) Total() float64 { return p.Map + p.Aggregate + p.Convert + p.Reduce }

// Stats reports what one rank observed during a job.
type Stats struct {
	// Phases is the per-phase simulated time breakdown.
	Phases PhaseTimes
	// Rounds is the number of Alltoallv exchange rounds the aggregate phase
	// needed (the map suspends once per round, Section III-A).
	Rounds int
	// OverlapRounds counts rounds whose communication was at least partly
	// hidden behind map computation.
	OverlapRounds int
	// OverlapSavedSec is the simulated seconds this rank saved by
	// overlapping exchange rounds with computation, relative to blocking
	// at every post.
	OverlapSavedSec float64
	// ShuffledBytes is the total intermediate bytes this rank sent.
	ShuffledBytes int64
	// MapOutKVs / MapOutBytes count the map's emitted KVs after optional KV
	// compression (what actually entered the send buffer).
	MapOutKVs   int64
	MapOutBytes int64
	// RecvKVs counts KVs received from the exchange.
	RecvKVs int64
	// OutputKVs counts final job output KVs on this rank.
	OutputKVs int64
	// RestoredFromCheckpoint reports that the map and aggregate phases were
	// skipped by resuming from a checkpoint.
	RestoredFromCheckpoint bool
	// Spill reports the rank's out-of-core activity (zero under OutOfCore:
	// Error, and whenever the data fit under the watermark). Snapshot at
	// job end; pages the Output spills later are not included.
	Spill spill.Stats
}

// nbuf is the number of send partition sets: one the map fills while the
// other's exchange is in flight.
const nbuf = 2

// NewJob creates a job for this rank with the given configuration.
func NewJob(comm *mpi.Comm, cfg Config) *Job {
	cfg = cfg.withDefaults()
	if cfg.Arena == nil {
		panic("core: Config.Arena is required")
	}
	return &Job{comm: comm, cfg: cfg}
}

// Run executes the full Mimir workflow: map with interleaved aggregate,
// then convert + reduce (or partial reduction). reduceFn may be nil for
// map-only jobs, whose output is the post-shuffle KV set. All ranks must
// call Run collectively.
func (j *Job) Run(input Input, mapFn MapFunc, reduceFn ReduceFunc) (*Output, error) {
	if err := CheckWorkers("core: Config.Workers", j.cfg.Workers); err != nil {
		return nil, err
	}
	if j.cfg.OutOfCore != Error {
		if j.cfg.SpillFS == nil {
			return nil, fmt.Errorf("core: OutOfCore %v requires Config.SpillFS", j.cfg.OutOfCore)
		}
		policy := spill.WhenNeeded
		if j.cfg.OutOfCore == SpillAlways {
			policy = spill.Always
		}
		j.store = spill.NewStore(spill.Config{
			Arena:  j.cfg.Arena,
			FS:     j.cfg.SpillFS,
			Clock:  j.comm.Clock(),
			Name:   fmt.Sprintf("mimir/rank%d", j.comm.Rank()),
			Policy: policy,
			Group:  j.cfg.SpillGroup,
		})
	}
	if err := j.comm.Barrier(); err != nil {
		return nil, err
	}
	// Fault tolerance: if every rank has a checkpoint, resume from it
	// instead of re-reading and re-shuffling the input. The decision is
	// collective so all ranks take the same path.
	restore := false
	if j.cfg.Checkpoint != nil {
		have := int64(0)
		if j.cfg.Checkpoint.FS.Size(j.cfg.Checkpoint.file(j.comm.Rank())) >= 16 {
			have = 1
		}
		all, err := j.comm.AllreduceInt64([]int64{have}, mpi.OpMin)
		if err != nil {
			return nil, err
		}
		restore = all[0] == 1
	}
	t0 := j.comm.Clock().Now()
	if restore {
		if err := j.restoreCheckpoint(); err != nil {
			j.cleanup()
			return nil, err
		}
	} else {
		if err := j.mapAggregate(input, mapFn); err != nil {
			j.cleanup()
			return nil, err
		}
		if j.cfg.Checkpoint != nil {
			if err := j.saveCheckpoint(); err != nil {
				j.cleanup()
				return nil, err
			}
		}
	}
	// Everything in the interleaved phase that was not inside an exchange
	// round is map time.
	j.stats.Phases.Map = j.comm.Clock().Now() - t0 - j.stats.Phases.Aggregate
	out, err := j.finish(reduceFn)
	if err != nil {
		j.cleanup()
		return nil, err
	}
	if err := j.comm.Barrier(); err != nil {
		out.Free()
		return nil, err
	}
	if j.store != nil {
		j.stats.Spill = j.store.Stats()
	}
	out.Stats = j.stats
	return out, nil
}

// cleanup releases intermediate buffers after a failed run so the node
// arena is left balanced (important when one arena serves many jobs).
func (j *Job) cleanup() {
	if j.recvKVC != nil {
		j.recvKVC.Free()
		j.recvKVC = nil
	}
	if j.prBkt != nil {
		j.prBkt.Free()
		j.prBkt = nil
	}
	if j.cpsBkt != nil {
		j.cpsBkt.Free()
		j.cpsBkt = nil
	}
	if j.planStage != nil {
		j.planStage.Free()
		j.planStage = nil
	}
}

// mapAggregate runs the interleaved map + aggregate phases (Figure 4).
func (j *Job) mapAggregate(input Input, mapFn MapFunc) error {
	p := j.comm.Size()
	// The whole static comm footprint — two send sets plus the receive set,
	// each a third — fits inside one CommBuf, half the paper's Section III-B
	// layout of a CommBuf send buffer plus an equal-sized receive buffer,
	// while the smaller rounds hide their latency behind the map.
	j.partSize = j.cfg.CommBuf / ((nbuf + 1) * p)
	if j.partSize < MinPartition {
		j.partSize = MinPartition
	}
	setSize := j.partSize * p

	// The receive buffer can never overflow because no rank injects more
	// than one partition per destination per round, and at most one round's
	// data is resident (a round is always consumed before the next is
	// posted).
	var err error
	j.sendBuf, err = j.cfg.Arena.NewPage(nbuf * setSize)
	if err != nil {
		return fmt.Errorf("core: allocating send buffer: %w", err)
	}
	recvBuf, err := j.cfg.Arena.NewPage(setSize)
	if err != nil {
		j.sendBuf.Release()
		return fmt.Errorf("core: allocating receive buffer: %w", err)
	}
	defer func() {
		j.sendBuf.Release()
		j.sendBuf = nil
		recvBuf.Release()
	}()
	j.partOffs = make([][]int, nbuf)
	for s := range j.partOffs {
		j.partOffs[s] = make([]int, p)
	}
	j.active = 0

	// Destination of received KVs.
	if j.cfg.PartialReduce != nil {
		j.prBkt, err = newBucketForJob(j)
		if err != nil {
			return err
		}
	} else {
		j.recvKVC = newKVCForJob(j)
	}

	// Optional KV compression bucket (Section III-C2): map output is folded
	// here first; the aggregate is delayed until the map completes. Under a
	// spill policy on a capped arena the bucket cannot spill, so it lives in
	// the headroom above the watermark, which up to p ranks may share, and
	// drains whenever it outgrows its share. The budget is floored at two
	// pages: below that the bucket would drain on every insert, defeating
	// compression entirely.
	if j.cfg.Combiner != nil {
		j.cpsBkt, err = newBucketForJob(j)
		if err != nil {
			return err
		}
		if a := j.cfg.Arena; j.store != nil && a.Capacity() > 0 {
			headroom := a.Capacity() - a.Watermark(spill.DefaultWatermark)
			j.cpsBudget = max(headroom/int64(p), int64(2*j.cfg.PageSize))
		}
	}

	// Resolve the partitioning strategy. A non-planning partitioner (hash,
	// func) yields its assignment immediately; a planning one (sample)
	// stages early map output in a KV container until enough is buffered to
	// sample, then plans on the job's collectives — which are every rank's
	// first collectives after startup, before any exchange, so the SPMD
	// collective order stays identical on all ranks.
	if j.cfg.Partitioner != nil {
		if j.cfg.Partitioner.NeedsPlan() {
			j.planPending = true
			j.planStage = newKVCForJob(j)
		} else if j.asn, err = j.cfg.Partitioner.Plan(j.comm, nil, false); err != nil {
			return err
		}
	}

	emit := &mapEmitter{job: j}
	err = input(func(rec Record) error {
		j.charge(float64(len(rec.Key)+len(rec.Val))*j.cfg.Costs.MapPerByte, simtime.Compute)
		return mapFn(rec, emit)
	})
	if err != nil {
		return err
	}

	// Drain the compression bucket into the send buffer.
	if j.cpsBkt != nil {
		if err := j.drainCombiner(); err != nil {
			return err
		}
	}

	// A small job may finish its input without ever filling the plan
	// staging budget; plan now so the staged KVs flow into the exchange.
	if j.planPending {
		if err := j.runPlan(); err != nil {
			return err
		}
	}

	// Final rounds: keep exchanging until every rank agrees it has nothing
	// left to send.
	j.inputDone = true
	for {
		if j.pending != nil {
			allDone, err := j.completeRound()
			if err != nil {
				return err
			}
			if allDone {
				break
			}
		}
		if err := j.postRound(); err != nil {
			return err
		}
	}
	return nil
}

// mapEmitter routes map output into the compression bucket or directly into
// the partitioned send buffer.
type mapEmitter struct {
	job *Job
}

func (e *mapEmitter) Emit(k, v []byte) error {
	j := e.job
	j.charge(j.cfg.Costs.PerRecord+float64(len(k)+len(v))*j.cfg.Costs.KVPerByte, simtime.Compute)
	if j.cpsBkt != nil {
		// KV compression "introduces extra computational overhead"
		// (Section III-C2): every emitted KV pays a second hash-and-merge
		// pass before it can reach the send buffer.
		j.charge(j.cfg.Costs.PerRecord+float64(len(k)+len(v))*j.cfg.Costs.KVPerByte, simtime.Compute)
		err := j.cpsBkt.Upsert(k, v, func(existing, incoming []byte) ([]byte, error) {
			return j.cfg.Combiner(k, existing, incoming)
		})
		if err != nil {
			return err
		}
		// Streaming compression: with a budget, drain the bucket into the
		// aggregate pipeline instead of letting it grow with the map.
		if j.cpsBudget > 0 && j.cpsBkt.MemoryBytes() > j.cpsBudget {
			if err := j.drainCombiner(); err != nil {
				return err
			}
			j.cpsBkt, err = newBucketForJob(j)
			return err
		}
		return nil
	}
	return j.insertSend(k, v)
}

// drainCombiner moves every combined KV from the compression bucket into
// the partitioned send buffer (triggering exchange rounds as partitions
// fill), freeing the bucket page by page behind the walk. The bucket is
// gone afterwards, even on error.
func (j *Job) drainCombiner() error {
	bkt := j.cpsBkt
	j.cpsBkt = nil
	return bkt.Drain(j.insertSend)
}

// insertSend places one encoded KV into the partition of its destination
// rank, suspending the map for an exchange round when the partition is full.
// A KV must fit both a send partition and a receiving container's page, so
// one larger than either fails here, on the emitting rank, rather than on
// the rank that receives it.
// While a plan is pending, KVs are staged in a container instead — no bytes
// may enter the send buffer before the assignment exists, or they would ride
// an exchange the planning collectives must precede.
func (j *Job) insertSend(k, v []byte) error {
	n := j.cfg.Hint.EncodedSize(k, v)
	if n > min(j.partSize, j.cfg.PageSize) {
		return fmt.Errorf("core: KV of %d bytes exceeds the send partition (%d bytes) or the PageSize (%d bytes)", n, j.partSize, j.cfg.PageSize)
	}
	if j.planPending {
		if err := j.planStage.Append(k, v); err != nil {
			return err
		}
		// Plan once a comm buffer's worth is staged: enough to sample, small
		// enough to keep staging memory bounded. Ranks reach this point at
		// different times; the collectives inside Plan block until all ranks
		// arrive (the slow ones plan at end of input), so this cannot
		// deadlock and the collective order stays identical everywhere.
		if j.planStage.Bytes() >= int64(j.cfg.CommBuf) {
			return j.runPlan()
		}
		return nil
	}
	dest, err := j.destFor(k)
	if err != nil {
		return err
	}
	if j.partOffs[j.active][dest]+n > j.partSize {
		if err := j.rotateRound(); err != nil {
			return err
		}
	}
	base := (j.active*j.comm.Size()+dest)*j.partSize + j.partOffs[j.active][dest]
	enc, err := j.cfg.Hint.Encode(j.sendBuf.Buf[base:base], k, v)
	if err != nil {
		return err
	}
	if len(enc) != n {
		panic("core: encode size mismatch")
	}
	j.partOffs[j.active][dest] += n
	j.stats.MapOutKVs++
	j.stats.MapOutBytes += int64(n)
	return nil
}

// destFor resolves one KV's destination rank under the job's assignment
// (legacy FNV-1a when none). Split keys advance a per-key sequence counter
// so their emissions round-robin over the split set; the counters live on
// the rank's one insert path, so the sequence — and every routed byte — is
// deterministic.
func (j *Job) destFor(k []byte) (int, error) {
	if j.asn == nil {
		return int(kvbuf.HashKey(k) % uint64(j.comm.Size())), nil
	}
	var seq uint64
	if j.splitSeq != nil && j.asn.SplitWidth(k) > 1 {
		seq = j.splitSeq[string(k)]
		j.splitSeq[string(k)] = seq + 1
	}
	dest := j.asn.Dest(k, seq)
	if dest < 0 || dest >= j.comm.Size() {
		return 0, fmt.Errorf("core: partitioner returned rank %d of %d", dest, j.comm.Size())
	}
	return dest, nil
}

// runPlan executes a planning partitioner: stride-sample the staged map
// output, hand the sample to Plan (all-gather + broadcast on the job's
// collectives, charged to the aggregate phase like every other exchange),
// then drain the staged KVs through the now-routed insert path. Hot-key
// splitting is enabled only when the job partially reduces (the merge
// callback re-merges split partials) and does not checkpoint (checkpointed
// state must stay repartitionable by key alone).
func (j *Job) runPlan() error {
	tStart := j.comm.Clock().Now()
	defer func() {
		j.stats.Phases.Aggregate += j.comm.Clock().Now() - tStart
	}()
	j.planPending = false
	limit := partition.SampleKeysPerRank
	if sc, ok := j.cfg.Partitioner.(interface{ SampleCap() int }); ok && sc.SampleCap() > 0 {
		limit = sc.SampleCap()
	}
	total := int(j.planStage.NumKV())
	stride := 1
	if total > limit {
		stride = (total + limit - 1) / limit
	}
	var sample [][]byte
	var sampleBytes int
	i := 0
	err := j.planStage.Scan(func(k, _ []byte) error {
		if i%stride == 0 {
			sample = append(sample, append([]byte(nil), k...))
			sampleBytes += len(k)
		}
		i++
		return nil
	})
	if err != nil {
		return err
	}
	// Drawing the sample is a pass over the staged keys.
	j.charge(float64(sampleBytes)*j.cfg.Costs.KVPerByte, simtime.Compute)
	split := j.cfg.PartialReduce != nil && j.cfg.Checkpoint == nil
	if j.asn, err = j.cfg.Partitioner.Plan(j.comm, sample, split); err != nil {
		return err
	}
	if j.asn.Splits() {
		j.splitSeq = make(map[string]uint64)
	}
	stage := j.planStage
	j.planStage = nil
	if err := stage.Drain(j.insertSend); err != nil {
		stage.Free()
		return err
	}
	stage.Free()
	return nil
}

// buildSend assembles the per-destination send slices from the active
// partition set, accounts the shuffled bytes, then resets the set's offsets
// and counts the round. The slices stay valid until the set is overwritten,
// which happens only after every rank has read them (the rendezvous copies
// at post time). That post-time copy also makes the header array itself
// reusable across rounds, so each round repopulates j.sendSlices instead of
// allocating.
func (j *Job) buildSend() [][]byte {
	p := j.comm.Size()
	if j.sendSlices == nil {
		j.sendSlices = make([][]byte, p)
	}
	send := j.sendSlices
	off := j.partOffs[j.active]
	for dest := 0; dest < p; dest++ {
		base := (j.active*p + dest) * j.partSize
		send[dest] = j.sendBuf.Buf[base : base+off[dest]]
		j.stats.ShuffledBytes += int64(off[dest])
	}
	for i := range off {
		off[i] = 0
	}
	j.stats.Rounds++
	return send
}

// consumeRound folds one round's received chunks into the KV container or
// partial-reduction bucket and charges the receive-side compute cost.
func (j *Job) consumeRound(recv [][]byte) error {
	var recvBytes int
	for _, chunk := range recv {
		recvBytes += len(chunk)
		if err := j.consumeChunk(chunk); err != nil {
			return err
		}
	}
	j.charge(float64(recvBytes)*j.cfg.Costs.KVPerByte, simtime.Compute)
	return nil
}

// postRound starts a nonblocking exchange of the active partition set and
// swaps the map onto the spare set. No simulated time is charged here; the
// communication runs in the background until completeRound.
func (j *Job) postRound() error {
	send := j.buildSend()
	j.pending = j.comm.Ialltoallv(send)
	j.active = (j.active + 1) % nbuf
	return nil
}

// completeRound waits for the pending exchange, folds its KVs in, and runs
// the collective done vote. The done flag is raised only once this rank has
// read all its input and its active set holds nothing unsent, so data can
// never be stranded; every rank sees the same vote, so all ranks stop after
// the same round.
func (j *Job) completeRound() (allDone bool, err error) {
	tStart := j.comm.Clock().Now()
	defer func() {
		j.stats.Phases.Aggregate += j.comm.Clock().Now() - tStart
	}()
	req := j.pending
	j.pending = nil
	recv, err := req.Wait()
	if err != nil {
		return false, err
	}
	if saved := req.OverlapSaved(); saved > 0 {
		j.stats.OverlapRounds++
		j.stats.OverlapSavedSec += saved
	}
	if err := j.consumeRound(recv); err != nil {
		return false, err
	}
	j.comm.Recycle(recv) // consumeRound copied every chunk out

	flag := int64(0)
	if j.inputDone && j.activeEmpty() {
		flag = 1
	}
	sum, err := j.comm.AllreduceInt64([]int64{flag}, mpi.OpSum)
	if err != nil {
		return false, err
	}
	return sum[0] == int64(j.comm.Size()), nil
}

// rotateRound is the aggregate's buffer swap on the map path:
// retire the in-flight round if there is one, then post the now-full active
// set and continue mapping into the freed set. Every rank's collective
// sequence is therefore strictly alternating post, vote, post, vote — the
// SPMD ordering the rendezvous runtime requires.
func (j *Job) rotateRound() error {
	if j.pending != nil {
		if _, err := j.completeRound(); err != nil {
			return err
		}
	}
	return j.postRound()
}

// activeEmpty reports whether the active partition set holds no data.
func (j *Job) activeEmpty() bool {
	for _, o := range j.partOffs[j.active] {
		if o != 0 {
			return false
		}
	}
	return true
}

func (j *Job) consumeChunk(chunk []byte) error {
	if j.prBkt != nil {
		for pos := 0; pos < len(chunk); {
			k, v, n, err := j.cfg.Hint.Decode(chunk[pos:])
			if err != nil {
				return fmt.Errorf("core: bad received chunk: %w", err)
			}
			err = j.prBkt.Upsert(k, v, func(existing, incoming []byte) ([]byte, error) {
				return j.cfg.PartialReduce(k, existing, incoming)
			})
			if err != nil {
				return err
			}
			pos += n
			j.stats.RecvKVs++
		}
		return nil
	}
	n, err := j.recvKVC.AppendChunk(chunk)
	j.stats.RecvKVs += int64(n)
	return err
}

// finish runs the post-shuffle part of the workflow: partial-reduction
// output, map-only output, or convert + reduce (Figure 5).
func (j *Job) finish(reduceFn ReduceFunc) (*Output, error) {
	// Partial reduction replaced convert+reduce; the bucket holds the
	// final unique KVs.
	if j.prBkt != nil {
		tReduce := j.comm.Clock().Now()
		defer func() {
			j.stats.Phases.Reduce = j.comm.Clock().Now() - tReduce
		}()
		// Split keys hold partials on several ranks; route them to the
		// key's home for re-merging via the partial-reduction callback.
		// The assignment is broadcast-identical, so every rank constructs
		// the merge (and runs its Alltoallv) iff any key is split.
		var merge *splitMerge
		if j.asn != nil && j.asn.Splits() {
			merge = newSplitMerge(j)
		}
		out := kvbuf.NewKVCOn(j.pageStore(), j.cfg.Arena, j.cfg.PageSize, j.cfg.Hint)
		// Drain frees the bucket behind the walk, even on error.
		prBkt := j.prBkt
		j.prBkt = nil
		err := prBkt.Drain(func(k, v []byte) error {
			if merge != nil && j.asn.SplitWidth(k) > 1 {
				return merge.add(k, v)
			}
			j.charge(j.cfg.Costs.PerRecord+float64(len(k)+len(v))*j.cfg.Costs.ReducePerByte, simtime.Compute)
			return out.Append(k, v)
		})
		if err == nil && merge != nil {
			err = merge.mergeAppend(out)
		}
		if err != nil {
			out.Free()
			return nil, err
		}
		j.stats.OutputKVs = out.NumKV()
		return &Output{KVC: out}, nil
	}

	// Map-only job: the aggregated KVs are the output.
	if reduceFn == nil {
		out := &Output{KVC: j.recvKVC}
		j.recvKVC = nil
		j.stats.OutputKVs = out.KVC.NumKV()
		return out, nil
	}

	// Convert (two passes, drains the input KVC) ...
	tConvert := j.comm.Clock().Now()
	j.charge(float64(j.recvKVC.Bytes())*j.cfg.Costs.ReducePerByte, simtime.Compute)
	kmv, err := kvbuf.ConvertOn(j.pageStore(), j.recvKVC, j.cfg.Arena, j.cfg.PageSize, j.cfg.Hint)
	if err != nil {
		return nil, err
	}
	j.recvKVC = nil
	defer kmv.Free()
	j.stats.Phases.Convert = j.comm.Clock().Now() - tConvert

	// ... then reduce.
	tReduce := j.comm.Clock().Now()
	defer func() {
		j.stats.Phases.Reduce = j.comm.Clock().Now() - tReduce
	}()
	out := kvbuf.NewKVCOn(j.pageStore(), j.cfg.Arena, j.cfg.PageSize, j.cfg.Hint)
	red := &outputEmitter{job: j, kvc: out}
	err = kmv.Scan(func(key []byte, vals *kvbuf.ValueIter) error {
		j.charge(j.cfg.Costs.PerRecord, simtime.Compute)
		return reduceFn(key, vals, red)
	})
	if err != nil {
		out.Free()
		return nil, err
	}
	j.stats.OutputKVs = out.NumKV()
	return &Output{KVC: out}, nil
}

type outputEmitter struct {
	job *Job
	kvc *kvbuf.KVC
}

func (e *outputEmitter) Emit(k, v []byte) error {
	e.job.charge(e.job.cfg.Costs.PerRecord+float64(len(k)+len(v))*e.job.cfg.Costs.ReducePerByte, simtime.Compute)
	return e.kvc.Append(k, v)
}

func (j *Job) charge(seconds float64, kind simtime.Kind) {
	j.comm.Clock().Advance(seconds, kind)
}

func newKVCForJob(j *Job) *kvbuf.KVC {
	return kvbuf.NewKVCOn(j.pageStore(), j.cfg.Arena, j.cfg.PageSize, j.cfg.Hint)
}

// pageStore adapts the job's spill store to the kvbuf interface, keeping
// the interface value nil (not a typed nil) when spilling is off.
func (j *Job) pageStore() kvbuf.PageStore {
	if j.store == nil {
		return nil
	}
	return j.store
}

func newBucketForJob(j *Job) (*kvbuf.Bucket, error) {
	return kvbuf.NewBucketOn(j.pageStore(), j.cfg.Arena, j.cfg.PageSize)
}

// Uint64Bytes and BytesUint64 are small helpers for the ubiquitous 8-byte
// integer values of WordCount-style jobs.
func Uint64Bytes(n uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, n)
	return b
}

// BytesUint64 decodes an 8-byte little-endian value.
func BytesUint64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
