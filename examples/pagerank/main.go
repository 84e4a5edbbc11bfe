// PageRank over the Graph500-style R-MAT graph: one map-only stage builds
// the adjacency partition (vertex state pinned to the hash partitioner so
// it never moves between rounds), then the shared multi-round driver runs
// one scatter stage per iteration — each vertex sends score/out-degree to
// its successors, a fixed-point integer update applies damping, and the
// global L1 residual (an allreduce vote) terminates the loop at
// convergence. Integer arithmetic makes the scores exactly reproducible
// whatever transport, worker count, or spill policy runs the job.
//
// Per-round checkpoints ("pr.r<N>") exercise the fault path the elastic
// service uses: a rerun restores mid-iteration instead of recomputing.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log"

	"mimir"
	"mimir/internal/workloads"
)

func main() {
	plat := mimir.Comet()
	ranks := plat.CoresPerNode
	world := mimir.NewWorldOn(plat, ranks)
	arena := mimir.NewArena(plat.NodeMemory)
	ckFS := mimir.NewFS(mimir.FSConfig{Bandwidth: 1 << 30, Latency: 1e-4})

	cfg := mimir.PageRankConfig{
		Scale:      12, // 2^22 vertices at paper scale
		EdgeFactor: workloads.DefaultEdgeFactor,
		Seed:       7,
	}
	opts := workloads.StageOpts{
		Hint:          workloads.PageRankHint(),
		PartialReduce: workloads.Int64VecAdd,
	}
	mr := mimir.MultiRound{Checkpoint: &mimir.Checkpoint{FS: ckFS, Name: "pr"}}

	results := make([]workloads.PageRankResult, ranks)
	err := world.Run(func(c *mimir.Comm) error {
		eng := workloads.NewMimirEngine(c, arena)
		eng.PageSize = plat.PageSize
		eng.CommBuf = plat.PageSize
		eng.Costs = plat.Costs()
		res, err := workloads.RunPageRank(eng, nil, cfg, opts, mr, nil)
		results[c.Rank()] = res
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	res := results[0]
	fmt.Printf("PageRank over an R-MAT graph: 2^%d vertices, %d edges\n",
		cfg.Scale, int64(cfg.EdgeFactor)<<uint(cfg.Scale))
	fmt.Printf("  converged=%v after %d rounds (L1 residual %d in fixed-point units of 1e-9)\n",
		res.Converged, res.Rounds, res.Residual)
	fmt.Printf("  every round checkpointed (pr.r0, pr.r1, ...) for mid-iteration restore\n")
	fmt.Printf("  simulated execution time: %.2f s\n", world.MaxTime())
	fmt.Printf("  peak memory per process: %.2f MB\n",
		float64(arena.Peak())/float64(ranks)/(1<<20))
}
