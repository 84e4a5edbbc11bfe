package mimir_test

// BENCH_skew pins the skew-aware partitioning claim: at zipf s=1.1 on 4
// Comet ranks, the sampling partitioner beats FNV-1a hashing on both
// simulated job time and the busiest rank's arena peak, while at s=0 the
// two stay comparable. All figures come from the simulated cost model
// (internal/expt), so they are byte-identical on any host and drift only
// when the engine's accounting changes.
//
// Regenerate the committed baseline with:
//
//	MIMIR_BENCH_OUT=BENCH_skew.json go test -run TestSkewBenchBaseline .

import (
	"testing"

	"mimir/internal/driver"
	"mimir/internal/expt"
)

// benchSkewCells is the committed sweep: skew {0, 1.1} x partitioner
// {hash, sample} at 4 ranks (one per node, so peak_per_rank_bytes is an
// exact arena peak), 1 MiB "1G" corpus, KV-hint on, PR off (container
// memory then tracks record traffic — the imbalance sampling fixes).
func benchSkewCells() []expt.Cell {
	return expt.SkewCells(driver.JobConfig{
		Seed: expt.Seed, Hint: true,
		TotalBytes: expt.PaperSize("1G"), Contention: 0.1,
	}, []float64{0, 1.1}, "hash", "sample")
}

// benchSkewBaseline is the committed shape of BENCH_skew.json.
type benchSkewBaseline struct {
	Benchmark string         `json:"benchmark"`
	Workload  string         `json:"workload"`
	Note      string         `json:"note"`
	Points    []expt.SkewRow `json:"points"`
}

func benchSkewRun() benchSkewBaseline {
	return benchSkewBaseline{
		Benchmark: "TestSkewBenchBaseline",
		Workload:  "WordCount zipf {0, 1.1} contention 0.1, 1 MiB (\"1G\"), Comet 4 nodes x 1 rank, KV-hint, hash vs sample partitioner",
		Note: "All figures are simulated (expt cost model), so they are byte-identical " +
			"on any host; drift means the engine's cost or memory accounting changed. " +
			"The claim pinned here: under skew the sampled weighted ranges beat hash " +
			"partitioning on both job time and the busiest rank's arena peak.",
		Points: expt.SkewRows(expt.RunCells(benchSkewCells())),
	}
}

func (b *benchSkewBaseline) point(t *testing.T, skew float64, part string) expt.SkewRow {
	t.Helper()
	for _, p := range b.Points {
		if p.Skew == skew && p.Partitioner == part {
			return p
		}
	}
	t.Fatalf("BENCH_skew point (skew %.1f, %s) missing", skew, part)
	return expt.SkewRow{}
}

// TestSkewBenchBaseline regenerates the sweep and holds it against the
// committed BENCH_skew.json (exact match — the figures are simulated), plus
// the structural claims: every cell in-memory, and sample strictly better
// than hash on time and peak at s=1.1 while within 25% on time at s=0.
func TestSkewBenchBaseline(t *testing.T) {
	got := benchSkewRun()
	for _, pt := range got.Points {
		if pt.Err != "" {
			t.Errorf("cell %s failed: %s", pt.Name(), pt.Err)
		}
		if pt.SpilledBytes != 0 {
			t.Errorf("cell %s spilled %d bytes; sweep must stay in memory", pt.Name(), pt.SpilledBytes)
		}
	}
	hash, sample := got.point(t, 1.1, "hash"), got.point(t, 1.1, "sample")
	if sample.TimeSec >= hash.TimeSec {
		t.Errorf("zipf 1.1: sample time %.4fs not below hash %.4fs", sample.TimeSec, hash.TimeSec)
	}
	if sample.PeakPerRankBytes >= hash.PeakPerRankBytes {
		t.Errorf("zipf 1.1: sample peak %d bytes not below hash %d", sample.PeakPerRankBytes, hash.PeakPerRankBytes)
	}
	h0, s0 := got.point(t, 0, "hash"), got.point(t, 0, "sample")
	if s0.TimeSec > 1.25*h0.TimeSec {
		t.Errorf("zipf 0: sample time %.4fs more than 25%% over hash %.4fs", s0.TimeSec, h0.TimeSec)
	}

	holdBaseline(t, "BENCH_skew.json", got)
}
