package expt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mimir/internal/driver"
	"mimir/internal/pfs"
	"mimir/internal/platform"
)

// The skew and MRC matrices: sweeps beyond the paper's figures, declared as
// cells like every figure and run by the same RunCells. Both run on 4 Comet
// nodes at one rank per node, so PeakPerProc and the round peaks are exact
// per-rank arena high-water marks, not node averages. Their measured cells
// project to tagged rows (SkewRow, MRCRow) for the committed BENCH_*.json
// baselines and the per-cell artifacts CI uploads (WriteCells).

// fourRanks is the matrices' base spec.
func fourRanks(plat *platform.Platform, cfg driver.JobConfig) Spec {
	return Spec{Plat: plat, Nodes: 4, RanksPerNode: 1, JobConfig: cfg}
}

// SkewCells declares the skew matrix: the zipf wordcount cfg describes
// (size, contention, optimizations) crossed zipf exponent x partitioner
// name ("hash" or "sample"), exponent outermost.
func SkewCells(cfg driver.JobConfig, skews []float64, partitioners ...string) []Cell {
	cfg.Kind, cfg.UseZipf = driver.JobWordCount, true
	rows := make([]variant, len(skews))
	for i, skew := range skews {
		rows[i] = variant{fmt.Sprintf("%.1f", skew), func(s *Spec) { s.ZipfSkew = skew }}
	}
	series := make([]variant, len(partitioners))
	for i, part := range partitioners {
		series[i] = variant{part, func(s *Spec) { s.Partitioner = part }}
	}
	return cross(fourRanks(platform.Comet(), cfg), rows, series)
}

// MRCCells declares the multi-round-computation ablation: each job kind
// (terasort, pagerank, kmeans, optionally bfs) at the dataset sizes in cfg,
// swept over its optimization ladder. The map-only jobs stop at the KV-hint
// rung: sort rows and BFS candidate parents must survive as records, so
// partial reduction does not apply (paper IV-D). The cells read their input
// for free — the platform's InputFS is the zero pfs.Config — so the times
// are the rounds' compute and communication alone.
func MRCCells(cfg driver.JobConfig, jobs ...string) []Cell {
	plat := platform.Comet()
	plat.InputFS = pfs.Config{}
	var cells []Cell
	for _, job := range jobs {
		rungs := []variant{mimirV("base", false, false, false), mimirV("hint", true, false, false)}
		if job != driver.JobTeraSort && job != driver.JobBFS {
			rungs = append(rungs, mimirV("hint;pr", true, true, false))
		}
		row := variant{job, func(s *Spec) { s.Kind = job }}
		cells = append(cells, cross(fourRanks(plat, cfg), []variant{row}, rungs)...)
	}
	return cells
}

// SkewRow is one measured skew cell, shaped for JSON.
type SkewRow struct {
	Skew             float64 `json:"skew"`
	Ranks            int     `json:"ranks"`
	OutOfCore        string  `json:"out_of_core"`
	Partitioner      string  `json:"partitioner"`
	TimeSec          float64 `json:"time_sec"`
	PeakPerRankBytes int64   `json:"peak_per_rank_bytes"`
	SpilledBytes     int64   `json:"spilled_bytes"`
	Err              string  `json:"err,omitempty"`
}

// Name is the row's stable identifier (and its artifact file stem).
func (r SkewRow) Name() string {
	return fmt.Sprintf("skew%.1f_r%d_%s_%s", r.Skew, r.Ranks, r.OutOfCore, r.Partitioner)
}

// SkewRows projects measured skew cells to their JSON rows.
func SkewRows(cells []Cell) []SkewRow {
	rows := make([]SkewRow, len(cells))
	for i, c := range cells {
		s, r := c.Spec, c.Result
		rows[i] = SkewRow{
			Skew: s.ZipfSkew, Ranks: s.Nodes,
			OutOfCore: s.OutOfCore.String(), Partitioner: s.Partitioner,
			TimeSec: r.Time, PeakPerRankBytes: r.PeakPerProc, SpilledBytes: r.SpilledBytes,
		}
		if r.Err != nil {
			rows[i].Err = r.Err.Error()
			rows[i].TimeSec = 0 // NaN is not valid JSON
		}
	}
	return rows
}

// MRCRow is one measured MRC cell, shaped for JSON: the two quantities the
// MRC machine model charges — rounds and communication volume — plus time
// and the per-round peak series (Result.RoundPeaks).
type MRCRow struct {
	Job              string  `json:"job"`
	Variant          string  `json:"variant"`
	Ranks            int     `json:"ranks"`
	Rounds           int     `json:"rounds"`
	TimeSec          float64 `json:"time_sec"`
	PeakPerRankBytes int64   `json:"peak_per_rank_bytes"`
	ShuffledBytes    int64   `json:"shuffled_bytes"`
	SpilledBytes     int64   `json:"spilled_bytes"`
	RoundPeakBytes   []int64 `json:"round_peak_bytes"`
	Err              string  `json:"err,omitempty"`
}

// Name is the row's stable identifier (and its artifact file stem).
func (r MRCRow) Name() string {
	return fmt.Sprintf("mrc_%s_%s_r%d", r.Job, strings.ReplaceAll(r.Variant, ";", "-"), r.Ranks)
}

// MRCRows projects measured MRC cells to their JSON rows.
func MRCRows(cells []Cell) []MRCRow {
	rows := make([]MRCRow, len(cells))
	for i, c := range cells {
		r := c.Result
		rows[i] = MRCRow{Job: c.Spec.Kind, Variant: c.Series, Ranks: c.Spec.Nodes}
		if r.Err != nil {
			rows[i].Err = r.Err.Error() // the measurements stay 0: NaN is not valid JSON
			continue
		}
		rows[i].Rounds, rows[i].TimeSec, rows[i].PeakPerRankBytes = r.Rounds, r.Time, r.PeakPerProc
		rows[i].ShuffledBytes, rows[i].SpilledBytes = r.ShuffledBytes, r.SpilledBytes
		rows[i].RoundPeakBytes = r.RoundPeaks
	}
	return rows
}

// WriteCells writes each row as its own indented JSON file (<name>.json)
// under dir, creating it if needed.
func WriteCells[R interface{ Name() string }](dir string, rows []R) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range rows {
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, r.Name()+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// FigSkew sweeps the zipf exponent at 4 ranks and plots hash vs sample
// partitioning: under skew the sampled weighted ranges balance record
// traffic across ranks, so both time and the busiest rank's arena peak drop
// relative to FNV-1a hashing. PR stays off here — with partial reduction,
// container memory tracks distinct keys rather than record traffic, which
// is the regime hot-key splitting (exercised by the property battery)
// addresses instead.
func FigSkew() []*Figure {
	return []*Figure{panel("figskew", "WordCount (Zipf) on Comet, 4 ranks: partitioner vs skew", "zipf s",
		SkewCells(driver.JobConfig{Seed: Seed, Hint: true, TotalBytes: PaperSize("1G"), Contention: 0.1},
			[]float64{0, 0.8, 1.1}, "hash", "sample"))}
}

// FigMRC runs the MRC ablation at 4 ranks (2^13 sort rows, 2^9 vertices,
// 2^12 points in 8 clusters of 3 dimensions) and plots each job's
// optimization ladder: the KV-hint cuts every job's arena peak (fixed-width
// keys drop the per-record headers), and partial reduction collapses the
// iterative jobs' exchange traffic (contributions to the same vertex,
// coordinate sums to the same centroid) at the sender.
func FigMRC() []*Figure {
	return []*Figure{panel("figmrc", "Multi-round jobs on Comet, 4 ranks: optimization ablation", "job",
		MRCCells(driver.JobConfig{Seed: Seed, Rows: 1 << 13, Scale: 9, Points: 1 << 12, K: 8, Dims: 3},
			driver.JobTeraSort, driver.JobPageRank, driver.JobKMeans))}
}
