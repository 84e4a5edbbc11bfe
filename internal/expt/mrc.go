package expt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/platform"
	"mimir/internal/workloads"
)

// MRCSpec describes the multi-round-computation ablation sweep: the cross
// product of MRC jobs (TeraSort / PageRank / k-means, optionally BFS), rank
// counts, and each job's optimization ladder, every cell one run on the
// Comet platform at one rank per node — so PeakPerRankBytes and the
// per-round peaks are exact arena high-water marks, not node averages.
type MRCSpec struct {
	Jobs  []Bench
	Ranks []int
	// Dataset sizes (0 = the committed defaults, scaled for CI).
	Rows    int64 // terasort rows
	Scale   int   // pagerank/bfs: log2 vertices
	Points  int64 // kmeans points
	K, Dims int
	// MaxRounds caps the iterative jobs (0 = each workload's own cap).
	MaxRounds int
	Seed      uint64
}

func (s MRCSpec) withDefaults() MRCSpec {
	if len(s.Jobs) == 0 {
		s.Jobs = []Bench{TeraSort, PageRank, KMeans}
	}
	if len(s.Ranks) == 0 {
		s.Ranks = []int{4}
	}
	if s.Rows == 0 {
		s.Rows = 1 << 13
	}
	if s.Scale == 0 {
		s.Scale = 9
	}
	if s.Points == 0 {
		s.Points = 1 << 12
	}
	if s.K == 0 {
		s.K = 8
	}
	if s.Dims == 0 {
		s.Dims = 3
	}
	if s.Seed == 0 {
		s.Seed = Seed
	}
	return s
}

// MRCCell is one measured cell of the matrix, shaped for per-cell JSON
// artifacts (CI uploads one file per cell; see WriteMRCCells).
type MRCCell struct {
	Job              string  `json:"job"`
	Variant          string  `json:"variant"`
	Ranks            int     `json:"ranks"`
	Rounds           int     `json:"rounds"`
	TimeSec          float64 `json:"time_sec"`
	PeakPerRankBytes int64   `json:"peak_per_rank_bytes"`
	ShuffledBytes    int64   `json:"shuffled_bytes"`
	SpilledBytes     int64   `json:"spilled_bytes"`
	// RoundPeakBytes[i] is the busiest rank's arena high-water mark by the
	// end of round i (sampled at the next round's barrier; the last entry is
	// the job's final peak). The arena peak is monotone, so the series shows
	// which round drives the job's memory footprint.
	RoundPeakBytes []int64 `json:"round_peak_bytes"`
	Err            string  `json:"err,omitempty"`
}

// Name is the cell's stable identifier (and its artifact file stem).
func (c MRCCell) Name() string {
	return fmt.Sprintf("mrc_%s_%s_r%d", c.Job, strings.ReplaceAll(c.Variant, ";", "-"), c.Ranks)
}

type mrcVariant struct {
	name     string
	hint, pr bool
}

// mrcVariants is each job's optimization ladder. The map-only jobs stop at
// the KV-hint rung: sort rows and BFS candidate parents must survive as
// records, so partial reduction does not apply (paper IV-D).
func mrcVariants(b Bench) []mrcVariant {
	switch b {
	case TeraSort, BFS:
		return []mrcVariant{{"base", false, false}, {"hint", true, false}}
	}
	return []mrcVariant{{"base", false, false}, {"hint", true, false}, {"hint;pr", true, true}}
}

// MRCMatrix runs the full cross product and returns one cell per run, in
// deterministic sweep order (job outermost, ranks innermost).
func MRCMatrix(s MRCSpec) []MRCCell {
	s = s.withDefaults()
	var cells []MRCCell
	for _, job := range s.Jobs {
		for _, v := range mrcVariants(job) {
			for _, ranks := range s.Ranks {
				cells = append(cells, mrcRun(s, job, v, ranks))
			}
		}
	}
	return cells
}

// mrcRun measures one cell. It shares Run's job (the same driver table row),
// engine constructor and result fold, but not Run itself: the round hook
// needs the per-rank arenas mid-job to sample the peak series at each round
// barrier, and the cells charge no input reading (fs is nil).
func mrcRun(s MRCSpec, job Bench, v mrcVariant, ranks int) MRCCell {
	plat := platform.Comet()
	world := mpi.NewWorld(mpi.Config{Size: ranks, Net: plat.Net})
	arenas := make([]*mem.Arena, ranks)
	for i := range arenas {
		arenas[i] = mem.NewArena(plat.NodeMemory)
	}
	// tops[rank][i] is rank's arena peak at the top of round i; each rank
	// goroutine appends only to its own slice.
	tops := make([][]int64, ranks)
	cfg := Spec{
		Bench: job, Hint: v.hint, PR: v.pr, Seed: s.Seed, MaxRounds: s.MaxRounds,
		Rows: s.Rows, Scale: s.Scale, Points: s.Points, K: s.K, Dims: s.Dims,
	}.jobConfig()
	cfg.OnRound = func(rank, round int) error {
		tops[rank] = append(tops[rank], arenas[rank].Peak())
		return nil
	}
	res := runRanks(world, arenas, 1, func(c *mpi.Comm, arena *mem.Arena) (workloads.StageStats, int, error) {
		return cfg.RunRank(newMimirEngine(c, arena, plat, 0), nil, nil)
	})
	cell := MRCCell{Job: cfg.Kind, Variant: v.name, Ranks: ranks}
	if res.Err != nil {
		cell.Err = res.Err.Error() // TimeSec stays 0: NaN is not valid JSON
		return cell
	}
	cell.Rounds, cell.TimeSec, cell.PeakPerRankBytes = res.Rounds, res.Time, res.PeakPerProc
	cell.ShuffledBytes, cell.SpilledBytes = res.ShuffledBytes, res.SpilledBytes
	// Fold the top-of-round samples into the end-of-round series: the end of
	// round i is the top of round i+1; the last round ends at the final peak.
	cell.RoundPeakBytes = make([]int64, cell.Rounds)
	for r := 0; r < cell.Rounds; r++ {
		var m int64
		for rank := range tops {
			v := arenas[rank].Peak()
			if r+1 < len(tops[rank]) {
				v = tops[rank][r+1]
			}
			if v > m {
				m = v
			}
		}
		cell.RoundPeakBytes[r] = m
	}
	return cell
}

// WriteMRCCells writes each cell as its own indented JSON file
// (<cell name>.json) under dir, creating it if needed.
func WriteMRCCells(dir string, cells []MRCCell) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range cells {
		b, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(filepath.Join(dir, c.Name()+".json"), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// FigMRC runs the MRC ablation at 4 ranks and plots each job's optimization
// ladder: the KV-hint cuts every job's arena peak (fixed-width keys drop
// the per-record headers), and partial reduction collapses the iterative
// jobs' exchange traffic (contributions to the same vertex, coordinate sums
// to the same centroid) at the sender.
func FigMRC() []*Figure {
	f := &Figure{ID: "figmrc", Title: "Multi-round jobs on Comet, 4 ranks: optimization ablation",
		XLabel: "job"}
	cells := MRCMatrix(MRCSpec{})
	for _, c := range cells {
		r := Result{Time: c.TimeSec, PeakPerProc: c.PeakPerRankBytes,
			ShuffledBytes: c.ShuffledBytes, SpilledBytes: c.SpilledBytes, Rounds: c.Rounds}
		if c.Err != "" {
			r.Err = fmt.Errorf("%s", c.Err)
			r.Time = math.NaN()
		}
		f.Add(c.Variant, c.Job, r)
	}
	return []*Figure{f}
}
