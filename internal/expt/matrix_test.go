package expt

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/mem"
	"mimir/internal/platform"
)

// namedRow is what WriteCells needs of a JSON row.
type namedRow interface{ Name() string }

func named[R namedRow](rows []R) []namedRow {
	out := make([]namedRow, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// smokeSkew is the small zipf wordcount the skew rows below sweep.
var smokeSkew = driver.JobConfig{Seed: Seed, Hint: true, PR: true,
	TotalBytes: 64 << 10, Contention: 0.1}

// matrices are the two sweeps beyond the paper's figures, each with a small
// corner for the smoke test and a smaller one for the determinism test.
var matrices = []struct {
	name       string
	smoke, one func() []Cell
	cells      int // in smoke
	rows       func([]Cell) []namedRow
	check      func(t *testing.T, c Cell)
}{
	{
		name:  "skew", // skew {0, 1.1} x partitioner {hash, sample}
		smoke: func() []Cell { return SkewCells(smokeSkew, []float64{0, 1.1}, "hash", "sample") },
		one:   func() []Cell { return SkewCells(smokeSkew, []float64{1.1}, "sample") },
		cells: 4,
		rows:  func(cells []Cell) []namedRow { return named(SkewRows(cells)) },
		check: func(t *testing.T, c Cell) {
			if c.Result.SpilledBytes != 0 {
				t.Errorf("spilled %d bytes under OutOfCore: Error", c.Result.SpilledBytes)
			}
		},
	},
	{
		name: "mrc", // pagerank and kmeans, full ladder
		smoke: func() []Cell {
			return MRCCells(driver.JobConfig{Seed: Seed, Scale: 8, Points: 1 << 11, K: 5, Dims: 2},
				driver.JobPageRank, driver.JobKMeans)
		},
		one: func() []Cell {
			return MRCCells(driver.JobConfig{Seed: Seed, Scale: 8}, driver.JobPageRank)
		},
		cells: 6,
		rows:  func(cells []Cell) []namedRow { return named(MRCRows(cells)) },
		check: func(t *testing.T, c Cell) {
			if c.Result.Rounds < 2 {
				t.Errorf("ran %d rounds; MRC cells must iterate", c.Result.Rounds)
			}
			if len(c.Result.RoundPeaks) != c.Result.Rounds {
				t.Errorf("%d round peaks for %d rounds", len(c.Result.RoundPeaks), c.Result.Rounds)
			}
		},
	},
}

// TestMatrixSmoke runs a small corner of each matrix through the one runner
// and, when MIMIR_CELLS_OUT is set, writes the per-cell JSON artifacts CI
// uploads.
func TestMatrixSmoke(t *testing.T) {
	for _, m := range matrices {
		t.Run(m.name, func(t *testing.T) {
			cells := RunCells(m.smoke())
			if len(cells) != m.cells {
				t.Fatalf("got %d cells, want %d", len(cells), m.cells)
			}
			rows := m.rows(cells)
			for i, c := range cells {
				t.Run(rows[i].Name(), func(t *testing.T) {
					if c.Result.Err != nil {
						t.Fatalf("failed: %v", c.Result.Err)
					}
					if c.Result.Time <= 0 || c.Result.PeakPerProc <= 0 {
						t.Errorf("time %v peak %v, want both positive", c.Result.Time, c.Result.PeakPerProc)
					}
					m.check(t, c)
				})
			}
			if dir := os.Getenv("MIMIR_CELLS_OUT"); dir != "" {
				if err := WriteCells(dir, rows); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %d cell artifacts to %s", len(rows), dir)
			}
		})
	}
}

func TestMatrixDeterministic(t *testing.T) {
	for _, m := range matrices {
		t.Run(m.name, func(t *testing.T) {
			a, _ := json.Marshal(m.rows(RunCells(m.one())))
			b, _ := json.Marshal(m.rows(RunCells(m.one())))
			if string(a) != string(b) {
				t.Fatalf("matrix not deterministic:\n%s\n%s", a, b)
			}
		})
	}
}

// roundTrip writes one row with WriteCells and reads it back from the file
// its Name promises.
func roundTrip[R namedRow](t *testing.T, row R, file string) {
	dir := t.TempDir()
	if err := WriteCells(dir, []R{row}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	var got R
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(row)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestWriteCellsRoundTrip(t *testing.T) {
	t.Run("skew", func(t *testing.T) {
		roundTrip(t, SkewRow{Skew: 1.1, Ranks: 4, OutOfCore: "error",
			Partitioner: "sample", TimeSec: 2.5, PeakPerRankBytes: 1 << 20},
			"skew1.1_r4_error_sample.json")
	})
	t.Run("mrc", func(t *testing.T) {
		roundTrip(t, MRCRow{Job: "pagerank", Variant: "hint;pr", Ranks: 4, Rounds: 2,
			TimeSec: 1.5, PeakPerRankBytes: 1 << 20, ShuffledBytes: 1 << 18,
			RoundPeakBytes: []int64{1 << 19, 1 << 20}},
			"mrc_pagerank_hint-pr_r4.json")
	})
}

// TestFigSkewShape is the golden-shape acceptance test: at zipf 1.1 on 4
// ranks the sample partitioner must beat hash on both simulated time and
// per-rank peak memory, while at zero skew the two stay comparable.
func TestFigSkewShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	figs := FigSkew()
	if len(figs) != 1 {
		t.Fatalf("got %d figures, want 1", len(figs))
	}
	f := figs[0]
	get := func(series, x string) Point {
		p, ok := f.Get(series, x)
		if !ok {
			t.Fatalf("missing point (%s, %s)", series, x)
		}
		if !p.OK() {
			t.Fatalf("point (%s, %s) not in-memory: note %q", series, x, p.Note)
		}
		return p
	}
	hash, sample := get("hash", "1.1"), get("sample", "1.1")
	if sample.Time >= hash.Time {
		t.Errorf("zipf 1.1: sample time %.3fs not below hash %.3fs", sample.Time, hash.Time)
	}
	if sample.PeakGB >= hash.PeakGB {
		t.Errorf("zipf 1.1: sample peak %.3fGB not below hash %.3fGB", sample.PeakGB, hash.PeakGB)
	}
	h0, s0 := get("hash", "0.0"), get("sample", "0.0")
	if s0.Time > 1.25*h0.Time {
		t.Errorf("zipf 0: sample time %.3fs more than 25%% over hash %.3fs", s0.Time, h0.Time)
	}
}

// TestSpecKnobsReachEngine fails if Run ignores an engine knob of the
// embedded JobConfig: each override must move what it exists to move.
func TestSpecKnobsReachEngine(t *testing.T) {
	run := func(edit func(*driver.JobConfig)) Result {
		job := driver.JobConfig{Kind: driver.JobWordCount, TotalBytes: 256 << 10, Seed: Seed, Hint: true}
		edit(&job)
		return Run(fourRanks(platform.Comet(), job))
	}
	base := run(func(*driver.JobConfig) {})
	if base.Failed() || base.SpilledBytes != 0 {
		t.Fatalf("base run: err=%v spilled=%d", base.Err, base.SpilledBytes)
	}
	t.Logf("base: time %.3fs peak %d", base.Time, base.PeakPerProc)

	if r := run(func(c *driver.JobConfig) { c.PageSize = 8 << 10 }); r.Failed() || r.PeakPerProc >= base.PeakPerProc {
		t.Errorf("PageSize 8 KiB: peak %d not below the 64 KiB-page peak %d (err=%v)", r.PeakPerProc, base.PeakPerProc, r.Err)
	}
	if r := run(func(c *driver.JobConfig) { c.CommBuf = 16 << 10 }); r.Failed() || r.Time <= base.Time {
		t.Errorf("CommBuf 16 KiB: time %.3fs not above the 64 KiB-buffer time %.3fs — no extra exchange rounds (err=%v)", r.Time, base.Time, r.Err)
	}
	if r := run(func(c *driver.JobConfig) { c.Workers = 4 }); !r.Failed() {
		t.Error("Workers 4 accepted; a rank runs on one goroutine")
	}
	if r := run(func(c *driver.JobConfig) { c.Partitioner = "sample" }); r.Failed() || r.Time == base.Time {
		t.Errorf("Partitioner sample: time %.3fs equals hash's; no plan ran (err=%v)", r.Time, r.Err)
	}
	if r := run(func(c *driver.JobConfig) { c.Partitioner = "modulo" }); !r.Failed() {
		t.Error("unknown Partitioner name accepted")
	}

	// MemBytes caps each rank; under the cap the Error policy fails and
	// OutOfCore: SpillWhenNeeded completes by evicting.
	tight := func(c *driver.JobConfig) { c.PageSize, c.CommBuf, c.MemBytes = 8<<10, 16<<10, base.PeakPerProc/2 }
	if r := run(tight); !errors.Is(r.Err, mem.ErrNoMemory) {
		t.Errorf("MemBytes at half the peak: err=%v, want ErrNoMemory", r.Err)
	}
	r := run(func(c *driver.JobConfig) { tight(c); c.OutOfCore = core.SpillWhenNeeded })
	if r.Failed() || r.SpilledBytes == 0 {
		t.Errorf("OutOfCore spill under the same cap: err=%v spilled=%d, want a completed run that spilled", r.Err, r.SpilledBytes)
	}
}
