package core

// Intra-rank worker-pool execution (Config.Workers). Concurrency here obeys
// one rule: workers may reorder *work*, never *results*. Every parallel
// phase shards its input deterministically, stages its effects privately,
// and replays them in worker order, so the bytes any observer sees — send
// partitions, exchange rounds, containers, checkpoints, output pages — are
// identical to the serial schedule's. Simulated time charges the slowest
// worker per phase (the max rule, mirroring the overlap window's
// max(compute, comm)), and sum/(W·max) is reported as the phase's parallel
// efficiency.

import (
	"fmt"
	"sync"

	"mimir/internal/kvbuf"
	"mimir/internal/simtime"
)

// workers returns the rank's configured pool size (>= 1 after defaults).
func (j *Job) workers() int { return j.cfg.Workers }

// containersParallel reports whether container phases (partial reduction,
// convert, reduce) shard across the pool. The spill store is the rank's one
// non-thread-safe shared dependency — its lock is a no-op without a spill
// group and it charges the rank clock from whichever goroutine calls it —
// so container sharding engages only for purely in-memory jobs. The map
// fan-out never touches the store and stays on for every policy; output is
// byte-identical either way.
func (j *Job) containersParallel() bool {
	return j.workers() > 1 && j.store == nil
}

// prParallel reports whether the partial-reduction bucket is sharded.
func (j *Job) prParallel() bool {
	return j.cfg.PartialReduce != nil && j.containersParallel()
}

// parallelDo runs fn(w) for w in [0, workers) concurrently and returns the
// lowest-numbered worker's error, so a multi-worker failure reports the
// same error on every run regardless of goroutine scheduling.
func parallelDo(workers int, fn func(w int) error) error {
	if workers == 1 {
		return fn(0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parAcc accumulates one phase's per-worker compute so the rank can charge
// max-over-workers wall time while reporting sum/(W·max) efficiency.
type parAcc struct{ sum, max float64 }

// add folds one fan-out's per-worker costs in and returns the chargeable
// (slowest-worker) cost.
func (a *parAcc) add(costs []float64) float64 {
	var m float64
	for _, c := range costs {
		a.sum += c
		if c > m {
			m = c
		}
	}
	a.max += m
	return m
}

// eff returns the accumulated parallel efficiency for a pool of the given
// size: 1 for perfectly balanced work (or no work / serial execution),
// 1/workers for fully serialized work.
func (a parAcc) eff(workers int) float64 {
	if a.max <= 0 || workers <= 1 {
		return 1
	}
	return a.sum / (float64(workers) * a.max)
}

// Map batching: input records are buffered (bytes copied — the input may
// reuse its buffers between emits) until a batch is worth fanning out. The
// bounds keep the uncharged Go-memory staging small relative to a page
// while giving each worker enough records to amortize the join.
const (
	mapBatchRecords = 512
	mapBatchBytes   = 256 << 10
)

// recSpan locates one (key, value) pair inside a staging buffer: the key
// starts at off, the value follows it.
type recSpan struct{ off, klen, vlen int }

// recBatch is the shared input-record buffer the map fan-out consumes.
type recBatch struct {
	buf   []byte
	spans []recSpan
}

func (b *recBatch) add(rec Record) {
	off := len(b.buf)
	b.buf = append(b.buf, rec.Key...)
	b.buf = append(b.buf, rec.Val...)
	b.spans = append(b.spans, recSpan{off, len(rec.Key), len(rec.Val)})
}

func (b *recBatch) full() bool {
	return len(b.spans) >= mapBatchRecords || len(b.buf) >= mapBatchBytes
}

func (b *recBatch) reset() {
	b.buf = b.buf[:0]
	b.spans = b.spans[:0]
}

// at reconstructs span sp's record, preserving nil-ness for empty sides so
// a batched map callback sees exactly what a serial one would.
func (b *recBatch) at(sp recSpan) (k, v []byte) {
	if sp.klen > 0 {
		k = b.buf[sp.off : sp.off+sp.klen]
	}
	if sp.vlen > 0 {
		v = b.buf[sp.off+sp.klen : sp.off+sp.klen+sp.vlen]
	}
	return k, v
}

// stagedKVs is one worker's private map-output staging. Emitted KVs land in
// plain Go memory — scaffolding bounded by the batch size, deliberately not
// arena-charged — and are replayed through the serial emit path in worker
// order, which equals original record order because workers own contiguous
// record chunks.
type stagedKVs struct {
	costs *Costs
	buf   []byte
	spans []recSpan
	cost  float64
}

func (s *stagedKVs) Emit(k, v []byte) error {
	s.cost += s.costs.PerRecord + float64(len(k)+len(v))*s.costs.KVPerByte
	off := len(s.buf)
	s.buf = append(s.buf, k...)
	s.buf = append(s.buf, v...)
	s.spans = append(s.spans, recSpan{off, len(k), len(v)})
	return nil
}

// flushMapBatch fans the batched records out over the pool: each worker
// runs mapFn over a contiguous chunk into private staging, accumulating the
// map and per-emit compute its records cost; the rank then charges the
// slowest worker and replays the staged KVs in worker order through
// emitMapped — the same byte sequence, combiner folds, and exchange-round
// schedule a serial map would produce.
func (j *Job) flushMapBatch(b *recBatch, mapFn MapFunc) error {
	n := len(b.spans)
	if n == 0 {
		return nil
	}
	w := j.workers()
	if w > n {
		w = n
	}
	stages := make([]*stagedKVs, w)
	costs := make([]float64, w)
	err := parallelDo(w, func(i int) error {
		st := &stagedKVs{costs: &j.cfg.Costs}
		stages[i] = st
		for _, sp := range b.spans[n*i/w : n*(i+1)/w] {
			k, v := b.at(sp)
			st.cost += float64(sp.klen+sp.vlen) * j.cfg.Costs.MapPerByte
			if err := mapFn(Record{Key: k, Val: v}, st); err != nil {
				return err
			}
		}
		return nil
	})
	for i, st := range stages {
		if st != nil {
			costs[i] = st.cost
		}
	}
	j.charge(j.parMap.add(costs), simtime.Compute)
	if err != nil {
		return err
	}
	for _, st := range stages {
		for _, sp := range st.spans {
			k := st.buf[sp.off : sp.off+sp.klen]
			v := st.buf[sp.off+sp.klen : sp.off+sp.klen+sp.vlen]
			if err := j.emitMapped(k, v); err != nil {
				return err
			}
		}
	}
	b.reset()
	return nil
}

// prScan walks the partial-reduction result in serial insertion order,
// whichever bucket form holds it.
func (j *Job) prScan(fn func(k, v []byte) error) error {
	if j.prShard != nil {
		return j.prShard.Scan(fn)
	}
	return j.prBkt.Scan(fn)
}

// prDrain is prScan that frees the bucket's pages behind the walk and the
// bucket itself, even on error.
func (j *Job) prDrain(fn func(k, v []byte) error) error {
	prBkt, prShard := j.prBkt, j.prShard
	j.prBkt, j.prShard = nil, nil
	if prShard != nil {
		return prShard.Drain(fn)
	}
	return prBkt.Drain(fn)
}

// consumeRoundSharded folds one exchange round's received chunks into the
// sharded partial-reduction bucket on the pool. Every worker decodes the
// full round (chunks are read-only and Decode returns aliases into them)
// and upserts only its own shard's keys, tagging each KV with its global
// arrival sequence — continued across rounds via prSeq — so the merged
// scan reproduces the serial bucket's insertion order exactly.
func (j *Job) consumeRoundSharded(recv [][]byte) error {
	w := j.workers()
	costs := make([]float64, w)
	var total uint64
	err := parallelDo(w, func(i int) error {
		seq := j.prSeq
		for _, chunk := range recv {
			for pos := 0; pos < len(chunk); {
				k, v, n, err := j.cfg.Hint.Decode(chunk[pos:])
				if err != nil {
					return fmt.Errorf("core: bad received chunk: %w", err)
				}
				pos += n
				cur := seq
				seq++
				if j.prShard.ShardOf(k) != i {
					continue
				}
				costs[i] += float64(n) * j.cfg.Costs.KVPerByte
				err = j.prShard.Upsert(i, cur, k, v, func(existing, incoming []byte) ([]byte, error) {
					return j.cfg.PartialReduce(k, existing, incoming)
				})
				if err != nil {
					return err
				}
			}
		}
		if i == 0 {
			total = seq - j.prSeq
		}
		return nil
	})
	j.charge(j.parAggr.add(costs), simtime.Compute)
	if err != nil {
		return err
	}
	j.prSeq += total
	j.stats.RecvKVs += int64(total)
	return nil
}

// reduceBatchRecords bounds how many KMV records one reduce fan-out covers,
// which in turn bounds the transient arena footprint of the per-worker
// staging containers (at most one batch's output plus a partial page per
// worker is alive beyond the final output at any moment).
const reduceBatchRecords = 1024

// stagedReduceEmitter is one reduce worker's private output staging: an
// ordinary arena-charged KV container, drained into the job output in
// worker order after the batch joins.
type stagedReduceEmitter struct {
	costs *Costs
	kvc   *kvbuf.KVC
	cost  *float64
}

func (e *stagedReduceEmitter) Emit(k, v []byte) error {
	*e.cost += e.costs.PerRecord + float64(len(k)+len(v))*e.costs.ReducePerByte
	return e.kvc.Append(k, v)
}

// reduceParallel runs reduceFn over contiguous KMV record ranges on the
// pool. Records partition by index, so value iterators never race; staging
// drains into out in worker order, reproducing the serial append sequence —
// and therefore the exact output page layout — batch by batch.
func (j *Job) reduceParallel(kmv *kvbuf.KMVC, reduceFn ReduceFunc, out *kvbuf.KVC) error {
	n := kmv.NumKMV()
	for lo := 0; lo < n; lo += reduceBatchRecords {
		cnt := n - lo
		if cnt > reduceBatchRecords {
			cnt = reduceBatchRecords
		}
		w := j.workers()
		if w > cnt {
			w = cnt
		}
		stages := make([]*kvbuf.KVC, w)
		costs := make([]float64, w)
		err := parallelDo(w, func(i int) error {
			st := kvbuf.NewKVC(j.cfg.Arena, j.cfg.PageSize, j.cfg.Hint)
			stages[i] = st
			em := &stagedReduceEmitter{costs: &j.cfg.Costs, kvc: st, cost: &costs[i]}
			return kmv.ScanRange(lo+cnt*i/w, lo+cnt*(i+1)/w, func(key []byte, vals *kvbuf.ValueIter) error {
				costs[i] += j.cfg.Costs.PerRecord
				return reduceFn(key, vals, em)
			})
		})
		j.charge(j.parReduce.add(costs), simtime.Compute)
		if err != nil {
			for _, st := range stages {
				if st != nil {
					st.Free()
				}
			}
			return err
		}
		for i, st := range stages {
			drainErr := st.Drain(func(k, v []byte) error {
				return out.Append(k, v)
			})
			if drainErr != nil {
				for _, rest := range stages[i:] {
					rest.Free()
				}
				return drainErr
			}
		}
	}
	return nil
}
