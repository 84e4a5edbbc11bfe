package workloads

import (
	"encoding/binary"
	"fmt"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
)

// PageRank over the R-MAT corpus (graphgen) as an iterative MapReduce job:
// one structure-building stage distributes directed edges to their source's
// owner rank, then each round is one stage whose map emits per-edge rank
// contributions and whose shuffle routes them to the destination's owner,
// where the damped update is applied. Dangling mass (out-degree-0 vertices)
// is redistributed uniformly via one AllreduceInt64 per round.
//
// All arithmetic is int64 fixed point (PageRankOne = 1.0). Floating-point
// addition is not associative, and both partial reduction and the hot-key
// split re-merge are free to reassociate partial sums — integer scores make
// every reassociation exact, which is what lets the determinism battery
// demand byte-identical output across optimizations, transports, and spill
// policies. Scores use the "unit mass per vertex" formulation: sum of all
// scores stays near N*PageRankOne (uniform-redistribution truncation leaks
// a few units per round, deterministically).

// PageRankOne is fixed-point 1.0: scores print as score/1e9.
const PageRankOne = int64(1_000_000_000)

// The damping factor 0.85 as a rational, applied in integer arithmetic.
const (
	prDampNum     = 85
	prTeleportNum = 100 - prDampNum
	prDen         = 100
)

// PageRankConfig describes one run.
type PageRankConfig struct {
	// Scale: the graph has 2^Scale vertices and EdgeFactor*2^Scale directed
	// edges (default edgefactor 16), R-MAT generated like BFS's corpus.
	Scale      int
	EdgeFactor int
	Seed       uint64
	// MaxRounds caps the iteration (default 30).
	MaxRounds int
	// Eps is the convergence threshold on the global L1 residual
	// sum_v |score_r(v) - score_r-1(v)| in fixed-point units (default:
	// N*PageRankOne / 1e6, i.e. a relative residual of 1e-6).
	Eps int64
}

// PageRankResult summarizes a run.
type PageRankResult struct {
	Rounds    int
	Converged bool
	// Residual is the final global L1 residual (fixed-point units).
	Residual int64
	// Vertices is the number of vertices this rank owns.
	Vertices int64
	Stats    StageStats
}

// PageRankHint is the job's KV-hint: 8-byte vertex keys, 8-byte fixed-point
// contributions.
func PageRankHint() kvbuf.Hint { return kvbuf.Hint{Key: kvbuf.Fixed(8), Val: kvbuf.Fixed(8)} }

// Int64VecAdd merges two equal-length vectors of little-endian int64 lanes
// by element-wise addition. It is the partial-reduce (and compression)
// combiner for PageRank (one lane: a contribution sum) and k-means
// (Dims+1 lanes: coordinate sums and a count) — commutative and
// associative, so hot-key splitting may engage. The sums are written into
// existing, which core.CombineFunc hands over, so a merge allocates nothing.
func Int64VecAdd(_ []byte, existing, incoming []byte) ([]byte, error) {
	if len(existing) != len(incoming) || len(existing)%8 != 0 {
		return nil, fmt.Errorf("workloads: int64 vector add on %d vs %d byte values", len(existing), len(incoming))
	}
	for i := 0; i < len(existing); i += 8 {
		a := int64(binary.LittleEndian.Uint64(existing[i:]))
		b := int64(binary.LittleEndian.Uint64(incoming[i:]))
		binary.LittleEndian.PutUint64(existing[i:], uint64(a+b))
	}
	return existing, nil
}

// Int64VecReduce is the reduce-phase equivalent of Int64VecAdd for runs
// with partial reduction off.
func Int64VecReduce(key []byte, vals *kvbuf.ValueIter, emit core.Emitter) error {
	var acc []byte
	for v, ok := vals.Next(); ok; v, ok = vals.Next() {
		if acc == nil {
			acc = append([]byte(nil), v...)
			continue
		}
		merged, err := Int64VecAdd(key, acc, v)
		if err != nil {
			return err
		}
		acc = merged
	}
	return emit.Emit(key, acc)
}

// RunPageRank executes the job. sink, when non-nil, receives this rank's
// owned (vertex, score) pairs in ascending vertex order after the final
// round. Vertex ownership is the engines' key hash, so the stage always
// runs on the default hash partitioner whatever the engine is configured
// with — a re-sampling partitioner would migrate vertex state between
// rounds. mr supplies the round machinery (checkpoint cadence, crash
// hooks); its Threshold/MaxRounds are derived from cfg and may not be set.
func RunPageRank(e Engine, fs *pfs.FS, cfg PageRankConfig, opts StageOpts, mr MultiRound,
	sink func(v uint64, score int64) error) (PageRankResult, error) {
	var res PageRankResult
	if mr.Threshold != 0 || mr.MaxRounds != 0 {
		return res, fmt.Errorf("workloads: pagerank derives Threshold/MaxRounds from its config")
	}
	comm := e.Comm()
	if cfg.EdgeFactor <= 0 {
		cfg.EdgeFactor = DefaultEdgeFactor
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 30
	}
	nVerts := int64(1) << uint(cfg.Scale)
	if cfg.Eps <= 0 {
		cfg.Eps = nVerts * PageRankOne / 1_000_000
	}

	// Graph state must stay put across rounds: pin the hash partitioner.
	if me, ok := e.(*MimirEngine); ok && me.Partitioner != nil {
		prev := me.Partitioner
		me.Partitioner = nil
		defer func() { me.Partitioner = prev }()
	}

	arena := engineArena(e)
	var chargedBytes int64
	charge := func(n int64) error {
		if arena == nil {
			return nil
		}
		if err := arena.Alloc(n); err != nil {
			return fmt.Errorf("workloads: building pagerank state: %w", err)
		}
		chargedBytes += n
		return nil
	}
	defer func() {
		if arena != nil && chargedBytes > 0 {
			arena.Free(chargedBytes)
		}
	}()

	// ---- Structure stage: route each directed edge to its source's owner.
	edges := genEdges(cfg.Seed, cfg.Scale, cfg.EdgeFactor, comm.Rank(), comm.Size())
	if fs != nil {
		fs.ChargeRead(comm.Clock(), int64(len(edges))*16)
	}
	edgeInput := func(emit func(rec core.Record) error) error {
		var rec [16]byte
		for _, ed := range edges {
			binary.LittleEndian.PutUint64(rec[0:], ed[0])
			binary.LittleEndian.PutUint64(rec[8:], ed[1])
			if err := emit(core.Record{Val: rec[:]}); err != nil {
				return err
			}
		}
		return nil
	}
	edgeMap := func(rec core.Record, emit core.Emitter) error {
		return emit.Emit(rec.Val[0:8], rec.Val[8:16])
	}
	// adj[u] is u's neighbours, 8 little-endian bytes each, so a round's map
	// emits their keys straight from it. A vertex without out-edges has no
	// entry.
	adj := map[uint64][]byte{}
	sopts := opts
	sopts.Combiner = nil // every (u,v) pair is a distinct edge
	sopts.PartialReduce = nil
	sopts.Checkpoint = NamedCheckpoint(mr.Checkpoint, "adj")
	stats, err := e.RunStage(sopts, edgeInput, edgeMap, nil, func(k, v []byte) error {
		u := binary.LittleEndian.Uint64(k)
		lst, seen := adj[u]
		if !seen {
			if err := charge(adjEntryBytes); err != nil {
				return err
			}
		}
		if err := charge(adjEdgeBytes); err != nil {
			return err
		}
		adj[u] = append(lst, v...)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Stats = stats

	// Owned vertices (key-hash ownership, every vertex exists even when
	// isolated), in ascending order for the output pass.
	var owned []uint64
	for v := uint64(0); v < uint64(nVerts); v++ {
		if vertexOwner(v, comm.Size()) == comm.Rank() {
			owned = append(owned, v)
		}
	}
	if err := charge(int64(len(owned)) * 24); err != nil { // owned slice + score map estimate
		return res, err
	}
	res.Vertices = int64(len(owned))
	// parts[8i:8i+8] is the contribution owned[i] sends each neighbour in
	// the current round. Only the map call for owned[i] writes it.
	parts := make([]byte, 8*len(owned))
	score := make(map[uint64]int64, len(owned))
	for _, v := range owned {
		score[v] = PageRankOne
	}

	// ---- Rounds. The caller's opts request PR/compression abstractly; the
	// job substitutes its own combiner (contributions sum as int64 lanes).
	ropts := opts
	ropts.Combiner = nil
	ropts.PartialReduce = nil
	if opts.Combiner != nil {
		ropts.Combiner = Int64VecAdd
	}
	if opts.PartialReduce != nil {
		ropts.PartialReduce = Int64VecAdd
	}
	mr.Threshold = cfg.Eps
	mr.MaxRounds = cfg.MaxRounds
	contrib := make(map[uint64]int64, len(owned))
	rr, err := RunRounds(e, ropts, mr, func(round int, stageOpts StageOpts) (int64, StageStats, error) {
		// Dangling mass: redistribute out-degree-0 vertices' scores
		// uniformly. Integer division leaks the remainder — deterministic,
		// and the damped update keeps the system stable regardless.
		var dangling int64
		for _, v := range owned {
			if len(adj[v]) == 0 {
				dangling += score[v]
			}
		}
		total, err := comm.AllreduceInt64([]int64{dangling}, mpi.OpSum)
		if err != nil {
			return 0, StageStats{}, err
		}
		danglingShare := total[0] / nVerts

		srcInput := func(emit func(rec core.Record) error) error {
			var rec [8]byte
			for i, v := range owned {
				if len(adj[v]) == 0 {
					continue
				}
				binary.LittleEndian.PutUint64(rec[:], uint64(i))
				if err := emit(core.Record{Val: rec[:]}); err != nil {
					return err
				}
			}
			return nil
		}
		contribMap := func(rec core.Record, emit core.Emitter) error {
			i := binary.LittleEndian.Uint64(rec.Val)
			u, part := owned[i], parts[8*i:8*i+8]
			nbrs := adj[u]
			binary.LittleEndian.PutUint64(part, uint64(score[u]/int64(len(nbrs)/8)))
			for j := 0; j < len(nbrs); j += 8 {
				if err := emit.Emit(nbrs[j:j+8], part); err != nil {
					return err
				}
			}
			return nil
		}
		for v := range contrib {
			delete(contrib, v)
		}
		stats, err := e.RunStage(stageOpts, srcInput, contribMap, Int64VecReduce, func(k, v []byte) error {
			contrib[binary.LittleEndian.Uint64(k)] += int64(binary.LittleEndian.Uint64(v))
			return nil
		})
		if err != nil {
			return 0, stats, err
		}
		var residual int64
		for _, v := range owned {
			next := prTeleportNum*PageRankOne/prDen +
				prDampNum*(contrib[v]+danglingShare)/prDen
			d := next - score[v]
			if d < 0 {
				d = -d
			}
			residual += d
			score[v] = next
		}
		return residual, stats, nil
	})
	if err != nil {
		return res, err
	}
	res.Stats.accumulate(rr.Stats)
	res.Rounds = rr.Rounds
	res.Converged = rr.Converged
	res.Residual = rr.LastVote

	if sink != nil {
		// owned was built by an ascending scan, so this streams in vertex order.
		for _, v := range owned {
			if err := sink(v, score[v]); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}
