package mrmpi

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

// Config configures an MR-MPI instance on one rank.
type Config struct {
	// Arena is the node memory pool pages are charged to. Required.
	Arena *mem.Arena
	// PageSize is the MR-MPI page size (default 64 KiB, the paper's 64 MB;
	// users raise it to 512 KiB / 128 KiB to use Comet / Mira memory fully).
	PageSize int
	// Mode is the out-of-core setting.
	Mode Mode
	// Spill is the parallel file system pages overflow to. Required.
	Spill *pfs.FS
	// Costs are the simulated compute costs (shared with the Mimir engine).
	Costs core.Costs
}

// PhaseTimes breaks a rank's simulated time down by the explicit MR-MPI
// phases (Compress time is folded into Map).
type PhaseTimes struct {
	Map, Aggregate, Convert, Reduce float64
}

// Total returns the summed phase time.
func (p PhaseTimes) Total() float64 { return p.Map + p.Aggregate + p.Convert + p.Reduce }

// Stats reports what one rank observed.
type Stats struct {
	// Phases is the per-phase simulated time breakdown.
	Phases PhaseTimes
	// SpilledBytes is the total data written out of core; the paper's
	// "in memory" criterion is SpilledBytes == 0 on every rank.
	SpilledBytes int64
	// ShuffledBytes is the intermediate data this rank sent in aggregate.
	ShuffledBytes int64
	MapOutKVs     int64
	OutputKVs     int64
}

// MR mirrors the MR-MPI library object: it owns the current KV (and, after
// convert, KMV) dataset and exposes the explicit phase calls of the MR-MPI
// API — Map, Compress, Aggregate, Convert, Reduce — each separated by
// global synchronization.
type MR struct {
	comm *mpi.Comm
	cfg  Config
	hint kvbuf.Hint // MR-MPI has no KV-hint: always the 8-byte header

	kv       *store // current KV data
	kmv      *store // current KMV data (after Convert)
	stats    Stats
	instance int64 // process-unique id for spill names
	seq      int   // spill-name sequence
}

// instanceSeq disambiguates spill file names across MR instances sharing a
// spill file system (e.g. the per-stage instances of an iterative job).
var instanceSeq atomic.Int64

// New creates an MR-MPI instance for this rank. Spill file names embed the
// rank and a process-unique instance id, so any number of MR objects may
// share one spill file system.
func New(comm *mpi.Comm, cfg Config) *MR {
	if cfg.Arena == nil || cfg.Spill == nil {
		panic("mrmpi: Config.Arena and Config.Spill are required")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 64 << 10
	}
	return &MR{comm: comm, cfg: cfg, hint: kvbuf.DefaultHint(), instance: instanceSeq.Add(1)}
}

// Stats returns this rank's counters.
func (mr *MR) Stats() Stats { return mr.stats }

func (mr *MR) spillName(kind string) string {
	mr.seq++
	return fmt.Sprintf("mrmpi.i%d.rank%d.%s.%d", mr.instance, mr.comm.Rank(), kind, mr.seq)
}

func (mr *MR) newStore(kind string) (*store, error) {
	return newStore(mr.cfg.Arena, mr.cfg.PageSize, mr.cfg.Mode, mr.cfg.Spill,
		mr.comm.Clock(), mr.spillName(kind))
}

func (mr *MR) charge(sec float64) { mr.comm.Clock().Advance(sec, simtime.Compute) }

// phaseTimer accumulates the simulated time of a phase call:
//
//	defer mr.phaseTimer(&mr.stats.Phases.Map)()
func (mr *MR) phaseTimer(dst *float64) func() {
	start := mr.comm.Clock().Now()
	return func() { *dst += mr.comm.Clock().Now() - start }
}

// Map runs the user map callback over this rank's input, storing emitted
// KVs in a fresh one-page KV store (MR-MPI's map phase needs 1 page). Like
// MR-MPI, the phase ends with a barrier.
func (mr *MR) Map(input core.Input, mapFn core.MapFunc) error {
	defer mr.phaseTimer(&mr.stats.Phases.Map)()
	if mr.kv != nil {
		mr.kv.free()
	}
	kv, err := mr.newStore("kv")
	if err != nil {
		return err
	}
	mr.kv = kv
	em := &storeEmitter{mr: mr, dst: kv}
	err = input(func(rec core.Record) error {
		mr.charge(float64(len(rec.Key)+len(rec.Val)) * mr.cfg.Costs.MapPerByte)
		return mapFn(rec, em)
	})
	if err != nil {
		return err
	}
	if err := kv.finalize(); err != nil {
		return err
	}
	mr.stats.SpilledBytes += kv.spilledBytes()
	return mr.comm.Barrier()
}

// storeEmitter encodes emitted KVs into an MR-MPI store.
type storeEmitter struct {
	mr  *MR
	dst *store
	buf []byte
}

func (e *storeEmitter) Emit(k, v []byte) error {
	e.mr.charge(e.mr.cfg.Costs.PerRecord + float64(len(k)+len(v))*e.mr.cfg.Costs.KVPerByte)
	var err error
	e.buf, err = e.mr.hint.Encode(e.buf[:0], k, v)
	if err != nil {
		return err
	}
	e.mr.stats.MapOutKVs++
	return e.dst.append(e.buf)
}

// Compress applies MR-MPI's local compression: KVs with the same key on this
// rank are merged with the combiner before aggregation. MR-MPI charges two
// scratch pages for the hash structures; the number of resident pages — and
// thus peak memory — does not change with the data, which is why the paper
// observes no memory benefit from compression in MR-MPI.
func (mr *MR) Compress(combiner core.CombineFunc) error {
	defer mr.phaseTimer(&mr.stats.Phases.Map)()
	if mr.kv == nil {
		return fmt.Errorf("mrmpi: Compress before Map")
	}
	// 2 scratch pages for the hash buckets.
	scratch := int64(2 * mr.cfg.PageSize)
	if err := mr.cfg.Arena.Alloc(scratch); err != nil {
		return err
	}
	defer mr.cfg.Arena.Free(scratch)

	merged := map[string][]byte{}
	var order []string
	err := mr.scanKV(func(k, v []byte) error {
		mr.charge(mr.cfg.Costs.PerRecord + float64(len(k)+len(v))*mr.cfg.Costs.KVPerByte)
		if old, ok := merged[string(k)]; ok {
			nv, err := combiner(k, old, v)
			if err != nil {
				return err
			}
			merged[string(k)] = append([]byte(nil), nv...)
			return nil
		}
		merged[string(k)] = append([]byte(nil), v...)
		order = append(order, string(k))
		return nil
	})
	if err != nil {
		return err
	}
	out, err := mr.newStore("kvc")
	if err != nil {
		return err
	}
	var buf []byte
	for _, k := range order {
		buf, err = mr.hint.Encode(buf[:0], []byte(k), merged[k])
		if err != nil {
			out.free()
			return err
		}
		if err := out.append(buf); err != nil {
			out.free()
			return err
		}
	}
	if err := out.finalize(); err != nil {
		out.free()
		return err
	}
	mr.stats.SpilledBytes += out.spilledBytes()
	mr.kv.free()
	mr.kv = out
	return mr.comm.Barrier()
}

// scanKV iterates the current KV store record by record.
func (mr *MR) scanKV(fn func(k, v []byte) error) error {
	return mr.kv.scanChunks(func(chunk []byte) error {
		for pos := 0; pos < len(chunk); {
			k, v, n, err := mr.hint.Decode(chunk[pos:])
			if err != nil {
				return fmt.Errorf("mrmpi: corrupt KV store: %w", err)
			}
			if err := fn(k, v); err != nil {
				return err
			}
			pos += n
		}
		return nil
	})
}

// Aggregate performs the all-to-all exchange of KVs so that all KVs with the
// same key land on the same rank. Per the paper's Figure 3, MR-MPI's
// aggregate holds seven pages at once: the map output page, two temporary
// partitioning buffers, the send buffer, a double-size receive buffer, and
// the convert input page. The exchange processes the KV data one page at a
// time with one MPI_Alltoallv per round.
func (mr *MR) Aggregate() error {
	defer mr.phaseTimer(&mr.stats.Phases.Aggregate)()
	if mr.kv == nil {
		return fmt.Errorf("mrmpi: Aggregate before Map")
	}
	p := mr.comm.Size()

	// Transient pages: 2 temp + 1 send + 2 recv. The map output page (held
	// by mr.kv) and the convert input page (held by the new store) complete
	// the seven.
	transient := int64(5 * mr.cfg.PageSize)
	if err := mr.cfg.Arena.Alloc(transient); err != nil {
		return fmt.Errorf("mrmpi: allocating aggregate buffers: %w", err)
	}
	defer mr.cfg.Arena.Free(transient)

	recvStore, err := mr.newStore("agg")
	if err != nil {
		return err
	}

	// Process this rank's KV data one chunk (at most one page) at a time:
	// partition the chunk into per-destination buffers and run one Alltoallv
	// round per chunk. Every rank keeps joining rounds (with empty payloads
	// once its own data is exhausted) until all ranks are done.
	send := make([][]byte, p)
	partitionAndExchange := func(chunk []byte) error {
		for i := range send {
			send[i] = nil
		}
		for pos := 0; pos < len(chunk); {
			k, _, n, err := mr.hint.Decode(chunk[pos:])
			if err != nil {
				return fmt.Errorf("mrmpi: corrupt chunk: %w", err)
			}
			dest := int(kvbuf.HashKey(k) % uint64(p))
			send[dest] = append(send[dest], chunk[pos:pos+n]...)
			pos += n
		}
		_, err := mr.exchangeRound(send, recvStore, false)
		return err
	}
	if err := mr.kv.scanChunks(partitionAndExchange); err != nil {
		recvStore.free()
		return err
	}
	// Final rounds with the done flag until every rank is finished.
	for i := range send {
		send[i] = nil
	}
	for {
		allDone, err := mr.exchangeRound(send, recvStore, true)
		if err != nil {
			recvStore.free()
			return err
		}
		if allDone {
			break
		}
	}
	if err := recvStore.finalize(); err != nil {
		recvStore.free()
		return err
	}
	mr.stats.SpilledBytes += recvStore.spilledBytes()
	mr.kv.free()
	mr.kv = recvStore
	return mr.comm.Barrier()
}

// exchangeRound is one aggregate round: every rank swaps its partitioned
// chunk with Alltoallv, appends what it received to dst, then all ranks
// agree via Allreduce whether everyone has exhausted its data.
func (mr *MR) exchangeRound(send [][]byte, dst *store, done bool) (allDone bool, err error) {
	for _, b := range send {
		mr.stats.ShuffledBytes += int64(len(b))
	}
	recv, err := mr.comm.Alltoallv(send)
	if err != nil {
		return false, err
	}
	var recvBytes int
	for _, chunk := range recv {
		recvBytes += len(chunk)
		for pos := 0; pos < len(chunk); {
			_, _, n, err := mr.hint.Decode(chunk[pos:])
			if err != nil {
				return false, fmt.Errorf("mrmpi: corrupt received chunk: %w", err)
			}
			if err := dst.append(chunk[pos : pos+n]); err != nil {
				return false, err
			}
			pos += n
		}
	}
	mr.charge(float64(recvBytes) * mr.cfg.Costs.KVPerByte)
	flag := int64(0)
	if done {
		flag = 1
	}
	sum, err := mr.comm.AllreduceInt64([]int64{flag}, mpi.OpSum)
	if err != nil {
		return false, err
	}
	return sum[0] == int64(mr.comm.Size()), nil
}

// kmvHeader encodes a KMV record header: key length and value count.
func kmvHeader(buf []byte, klen, nvals int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(klen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nvals))
	return buf
}

func decodeKMV(rec []byte) (key []byte, nvals int, values []byte, err error) {
	if len(rec) < 8 {
		return nil, 0, nil, fmt.Errorf("mrmpi: short KMV record")
	}
	klen := int(binary.LittleEndian.Uint32(rec[0:]))
	nvals = int(binary.LittleEndian.Uint32(rec[4:]))
	if 8+klen > len(rec) {
		return nil, 0, nil, fmt.Errorf("mrmpi: corrupt KMV record")
	}
	return rec[8 : 8+klen], nvals, rec[8+klen:], nil
}
