package mimir_test

// BENCH_mrc pins the multi-round-computation suite's ablation: TeraSort,
// PageRank, and k-means on 4 Comet ranks (one per node, so every peak is an
// exact arena high-water mark), each swept over its optimization ladder.
// The committed claims: the KV-hint cuts every job's exchange traffic and
// the iterative jobs' arena peaks, and partial reduction further cuts the
// iterative jobs' peaks (Mimir's pr merges at the aggregate, so wire bytes
// stay put while container memory drops). Round counts and the per-round
// peak series are pinned exactly — all figures come from the simulated cost
// model, so they are byte-identical on any host and drift only when the
// engine's accounting changes.
//
// Regenerate the committed baseline with:
//
//	MIMIR_BENCH_OUT=BENCH_mrc.json go test -run TestMRCBenchBaseline .

import (
	"testing"

	"mimir/internal/driver"
	"mimir/internal/expt"
)

// benchMRCCells is the committed sweep (FigMRC's): jobs {terasort,
// pagerank, kmeans} x ladder {base, hint, hint;pr} at 4 ranks, 2^13 rows /
// 2^9 vertices / 2^12 points in 8 clusters of 3 dimensions, seed 42.
func benchMRCCells() []expt.Cell {
	return expt.MRCCells(driver.JobConfig{
		Seed: expt.Seed, Rows: 1 << 13, Scale: 9, Points: 1 << 12, K: 8, Dims: 3,
	}, driver.JobTeraSort, driver.JobPageRank, driver.JobKMeans)
}

// benchMRCBaseline is the committed shape of BENCH_mrc.json.
type benchMRCBaseline struct {
	Benchmark string        `json:"benchmark"`
	Workload  string        `json:"workload"`
	Note      string        `json:"note"`
	Points    []expt.MRCRow `json:"points"`
}

func benchMRCRun() benchMRCBaseline {
	return benchMRCBaseline{
		Benchmark: "TestMRCBenchBaseline",
		Workload:  "MRC suite (terasort 2^13 rows, pagerank 2^9 vertices, kmeans 2^12 points), Comet 4 nodes x 1 rank, optimization ladder per job",
		Note: "All figures are simulated (expt cost model), so they are byte-identical " +
			"on any host; drift means the engine's cost or memory accounting changed. " +
			"Pinned here: round counts, per-round arena peaks, and the ladder claims — " +
			"the KV-hint cuts exchange traffic, partial reduction cuts the iterative " +
			"jobs' arena peaks.",
		Points: expt.MRCRows(expt.RunCells(benchMRCCells())),
	}
}

func (b *benchMRCBaseline) point(t *testing.T, job, variant string) expt.MRCRow {
	t.Helper()
	for _, p := range b.Points {
		if p.Job == job && p.Variant == variant {
			return p
		}
	}
	t.Fatalf("BENCH_mrc point (%s, %s) missing", job, variant)
	return expt.MRCRow{}
}

// TestMRCBenchBaseline regenerates the sweep and holds it against the
// committed BENCH_mrc.json (exact match — the figures are simulated), plus
// the structural claims the ablation exists to demonstrate.
func TestMRCBenchBaseline(t *testing.T) {
	got := benchMRCRun()
	for _, pt := range got.Points {
		if pt.Err != "" {
			t.Errorf("cell %s failed: %s", pt.Name(), pt.Err)
		}
		if pt.SpilledBytes != 0 {
			t.Errorf("cell %s spilled %d bytes; sweep must stay in memory", pt.Name(), pt.SpilledBytes)
		}
		if len(pt.RoundPeakBytes) != pt.Rounds {
			t.Errorf("cell %s: %d round peaks for %d rounds", pt.Name(), len(pt.RoundPeakBytes), pt.Rounds)
		}
		for i := 1; i < len(pt.RoundPeakBytes); i++ {
			if pt.RoundPeakBytes[i] < pt.RoundPeakBytes[i-1] {
				t.Errorf("cell %s: round peak series not monotone at round %d", pt.Name(), i)
			}
		}
	}
	// Round counts: the sort is one round; the iterative jobs actually
	// iterate and the ladder never changes how many rounds convergence takes
	// (the optimizations are representation changes, not numeric ones).
	for _, job := range []string{"terasort", "pagerank", "kmeans"} {
		base := got.point(t, job, "base")
		hint := got.point(t, job, "hint")
		switch job {
		case "terasort":
			if base.Rounds != 1 {
				t.Errorf("terasort ran %d rounds, want 1", base.Rounds)
			}
		default:
			if base.Rounds < 2 {
				t.Errorf("%s ran %d rounds; the suite must exercise the round loop", job, base.Rounds)
			}
			pr := got.point(t, job, "hint;pr")
			if pr.Rounds != base.Rounds || hint.Rounds != base.Rounds {
				t.Errorf("%s round count changed across the ladder: base %d, hint %d, pr %d",
					job, base.Rounds, hint.Rounds, pr.Rounds)
			}
			// Partial reduction merges at the aggregate: container memory
			// drops while wire traffic stays put.
			if pr.PeakPerRankBytes >= hint.PeakPerRankBytes {
				t.Errorf("%s: pr peak %d not below hint peak %d", job, pr.PeakPerRankBytes, hint.PeakPerRankBytes)
			}
			if hint.PeakPerRankBytes >= base.PeakPerRankBytes {
				t.Errorf("%s: hint peak %d not below base peak %d", job, hint.PeakPerRankBytes, base.PeakPerRankBytes)
			}
		}
		// The KV-hint drops per-record headers, so exchange traffic shrinks.
		if hint.ShuffledBytes >= base.ShuffledBytes {
			t.Errorf("%s: hint shuffled %d not below base %d", job, hint.ShuffledBytes, base.ShuffledBytes)
		}
	}

	holdBaseline(t, "BENCH_mrc.json", got)
}
