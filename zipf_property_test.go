package mimir_test

// The skew determinism/property battery: WordCount over the seeded zipf
// corpus must produce byte-identical canonical output whichever partitioner
// routes the keys — FNV-1a hashing or the sampling partitioner (whose plan
// collectives, weighted ranges, and hot-key split+re-merge all sit on the
// data path) — at every skew and on every transport, with Workers=1 (the
// only value above 0 a rank accepts). quick.Check
// drives the corpus seed; set MIMIR_PROP_SEED to reproduce a failing draw.

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"mimir/internal/driver"
	"mimir/internal/mpi"
	"mimir/internal/simtime"

	mathrand "math/rand"
)

// propWorldSize is the battery's world size (4 ranks, like the conformance
// suite and the committed skew bench).
const propWorldSize = 4

// propSeed seeds the quick.Check draw: MIMIR_PROP_SEED when set (CI pins
// two values so the sweep is reproducible), else a fixed default.
func propSeed(t *testing.T) int64 {
	if v := os.Getenv("MIMIR_PROP_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad MIMIR_PROP_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

// runZipfWC runs one distributed zipf WordCount and returns rank 0's
// canonical gathered output. Local runs share one in-process world; tcp
// builds a fresh 4-process-shaped loopback mesh (one world per transport,
// every rank in this process).
func runZipfWC(t *testing.T, cfg driver.JobConfig, tcp bool) []byte {
	t.Helper()
	out, errs := runZipfWCErrs(t, cfg, tcp)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// runZipfWCErrs is runZipfWC returning each rank's error instead of failing
// the test: one error for the local world, one per rank over TCP.
func runZipfWCErrs(t *testing.T, cfg driver.JobConfig, tcp bool) ([]byte, []error) {
	t.Helper()
	if !tcp {
		world := mpi.NewWorld(mpi.Config{Size: propWorldSize, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
		out, err := driver.RunJob(world, cfg, nil)
		return out, []error{err}
	}
	trs, err := shuffleMesh(propWorldSize, false)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	errs := make([]error, propWorldSize)
	var wg sync.WaitGroup
	for r, tr := range trs {
		wg.Add(1)
		go func(r int, world *mpi.World) {
			defer wg.Done()
			defer world.Close()
			o, err := driver.RunJob(world, cfg, nil)
			errs[r] = err
			if r == 0 {
				out = o
			}
		}(r, mpi.NewWorld(mpi.Config{Transport: tr}))
	}
	wg.Wait()
	return out, errs
}

// zipfCase is one cell of the battery grid.
type zipfCase struct {
	skew    float64
	workers int
	tcp     bool
}

func (c zipfCase) name() string {
	transport := "local"
	if c.tcp {
		transport = "tcp"
	}
	return fmt.Sprintf("s=%.1f/workers=%d/%s", c.skew, c.workers, transport)
}

// TestZipfPartitionerEquivalence is the battery: for every grid cell,
// quick.Check draws corpus seeds and asserts the sample partitioner's
// gathered output is byte-identical to hash partitioning's. PR is on, so at
// high skew plus contention the hot key splits across ranks and re-merges —
// equivalence then also proves split+re-merge equals the unsplit reduce.
// A rank runs on one goroutine, so the Workers=4 and Workers=8 cells assert
// that both partitioners' jobs are refused on every rank instead.
func TestZipfPartitionerEquivalence(t *testing.T) {
	cases := []zipfCase{
		{0, 1, false}, {0, 4, false}, {0, 8, false},
		{0.8, 1, false}, {0.8, 4, false}, {0.8, 8, false},
		{1.1, 1, false}, {1.1, 4, false}, {1.1, 8, false},
		{0, 1, true}, {0.8, 1, true}, {1.1, 1, true},
		{0.8, 4, true}, {1.1, 8, true},
	}
	maxCount := 2
	if testing.Short() {
		cases = []zipfCase{{0, 1, false}, {1.1, 1, false}, {1.1, 8, false}}
		maxCount = 1
	}
	for _, tc := range cases {
		t.Run(tc.name(), func(t *testing.T) {
			if tc.workers > 1 {
				for _, part := range []string{"hash", "sample"} {
					cfg := driver.JobConfig{
						TotalBytes: 32 << 10, Seed: uint64(propSeed(t)),
						Hint: true, PR: true, Workers: tc.workers, Partitioner: part,
						UseZipf: true, ZipfSkew: tc.skew, Contention: 0.25,
					}
					_, errs := runZipfWCErrs(t, cfg, tc.tcp)
					checkWorkersRefused(t, errs, tc.workers)
				}
				return
			}
			count := maxCount
			if tc.tcp {
				count = 1 // fresh loopback mesh per draw: one is plenty
			}
			qc := &quick.Config{
				MaxCount: count,
				Rand:     mathrand.New(mathrand.NewSource(propSeed(t))),
			}
			err := quick.Check(func(seed uint64) bool {
				base := driver.JobConfig{
					TotalBytes: 32 << 10, Seed: seed,
					Hint: true, PR: true, Workers: tc.workers,
					UseZipf: true, ZipfSkew: tc.skew, Contention: 0.25,
				}
				hash, sample := base, base
				hash.Partitioner = "hash"
				sample.Partitioner = "sample"
				h := runZipfWC(t, hash, tc.tcp)
				s := runZipfWC(t, sample, tc.tcp)
				if len(h) == 0 {
					t.Errorf("seed %d: empty output", seed)
					return false
				}
				if !bytes.Equal(h, s) {
					t.Errorf("seed %d: sample output diverges from hash (%d vs %d bytes)",
						seed, len(s), len(h))
					return false
				}
				return true
			}, qc)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestZipfSplitMergeMatchesPlainReduce re-checks the split+re-merge path
// against a run where splitting cannot engage at all: with PR off the
// sample partitioner keeps every key whole, so any disagreement between the
// PR and no-PR sample runs (both canonical) is the split machinery's fault.
func TestZipfSplitMergeMatchesPlainReduce(t *testing.T) {
	base := driver.JobConfig{
		TotalBytes: 32 << 10, Seed: uint64(propSeed(t)),
		Hint: true, UseZipf: true, ZipfSkew: 1.1, Contention: 0.3,
		Partitioner: "sample",
	}
	split, plain := base, base
	split.PR = true
	got := runZipfWC(t, split, false)
	want := runZipfWC(t, plain, false)
	if len(want) == 0 {
		t.Fatal("empty output")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("split+re-merge output diverges from plain reduce (%d vs %d bytes)",
			len(got), len(want))
	}
}
