package driver

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mimir/internal/core"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
	"mimir/internal/workloads"
)

func testWorld(size int) *mpi.World {
	return mpi.NewWorld(mpi.Config{Size: size, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
}

// TestRunJobSmoke: every kind produces non-empty, reproducible canonical
// output with the expected line count.
func TestRunJobSmoke(t *testing.T) {
	cases := []struct {
		cfg   JobConfig
		lines int
	}{
		{JobConfig{Kind: JobTeraSort, Rows: 500, Seed: 1, Hint: true}, 500},
		{JobConfig{Kind: JobPageRank, Scale: 7, Seed: 2, Hint: true, PR: true}, 128},
		{JobConfig{Kind: JobKMeans, Points: 600, K: 5, Dims: 2, Seed: 3, Hint: true, PR: true}, 5},
		{JobConfig{Kind: JobBFS, Scale: 7, Seed: 4, Hint: true}, -1},
		{JobConfig{Kind: JobWordCount, TotalBytes: 8 << 10, Seed: 5, Hint: true}, -1},
		{JobConfig{Kind: JobOctree, Points: 1 << 12, Seed: 6, Hint: true, PR: true}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.cfg.Kind, func(t *testing.T) {
			out, err := RunJob(testWorld(4), tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				t.Fatal("empty output")
			}
			n := strings.Count(string(out), "\n")
			if tc.lines >= 0 && n != tc.lines {
				t.Fatalf("%d output lines, want %d", n, tc.lines)
			}
			again, err := RunJob(testWorld(4), tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, again) {
				t.Fatal("output not reproducible")
			}
			// KV compression is every kind's table entry, not wordcount's
			// alone: it must run and never change the bytes — except BFS,
			// whose combiner keeps one candidate parent per sender, so it may
			// pick a different (validated) tree over the same visited set.
			cps := tc.cfg
			cps.CPS = true
			compressed, err := RunJob(testWorld(4), cps, nil)
			if err != nil {
				t.Fatalf("cps: %v", err)
			}
			if tc.cfg.Kind == JobBFS {
				if got := strings.Count(string(compressed), "\n"); got != n {
					t.Fatalf("cps visited %d vertices, want %d", got, n)
				}
			} else if !bytes.Equal(out, compressed) {
				t.Fatal("cps changed the output")
			}
		})
	}
}

// TestRunJobUnknownKind rejects bad kinds cleanly.
func TestRunJobUnknownKind(t *testing.T) {
	_, err := RunJob(testWorld(2), JobConfig{Kind: "sort-of"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("got %v", err)
	}
}

// TestJobConfigValidate: the one job-level check rejects what the job
// service and the CLIs used to reject each on their own.
func TestJobConfigValidate(t *testing.T) {
	good := []JobConfig{
		{},
		{Kind: JobBFS, Partitioner: "sample"},
		{UseZipf: true, ZipfSkew: 1.1, Contention: 1, Dist: workloads.Wikipedia},
		{ZipfSkew: -1}, // skew is read only with UseZipf (the CLI's -zipf -1 = off)
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
	}
	bad := []JobConfig{
		{Kind: "sort-of"},
		{Dist: workloads.Distribution(7)},
		{UseZipf: true, ZipfSkew: -0.5},
		{Contention: -0.1},
		{Contention: 1.5},
		{Partitioner: "modulo"},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v accepted, want rejection", cfg)
		}
		if _, err := RunJob(testWorld(2), cfg, nil); err == nil {
			t.Errorf("RunJob ran %+v, want rejection", cfg)
		}
	}
}

// TestPageRankRoundCheckpointRepartition is the mid-iteration elasticity
// check: a checkpointed PageRank writes one checkpoint per round;
// core.RepartitionCheckpoint then rewrites every round's checkpoint for a
// smaller world, and a run at the new size restores every round and still
// produces byte-identical canonical output — per-vertex scores are
// independent of which rank hosts them.
func TestPageRankRoundCheckpointRepartition(t *testing.T) {
	fs := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	base := JobConfig{
		Kind: JobPageRank, Scale: 7, Seed: 9, Hint: true, PR: true,
		Checkpoint: &core.Checkpoint{FS: fs, Name: "prjob"},
	}
	const oldSize, newSize = 4, 3
	want, err := RunJob(testWorld(oldSize), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty output")
	}

	// Repartition every checkpoint the run left behind: the adjacency stage
	// plus one per round, from round 0 with no round skipped.
	names := []string{"prjob.adj"}
	for r := 0; ; r++ {
		name := fmt.Sprintf("prjob.r%d", r)
		if ck := (core.Checkpoint{FS: fs, Name: name}); !ck.Exists(oldSize) {
			break
		}
		names = append(names, name)
	}
	if rounds := len(names) - 1; rounds < 3 {
		t.Fatalf("only %d consecutive round checkpoints found; every round should write one", rounds)
	}
	for _, name := range names {
		ck := core.Checkpoint{FS: fs, Name: name}
		if _, err := core.RepartitionCheckpoint(fs, nil, ck, workloads.PageRankHint(),
			oldSize, newSize, nil); err != nil {
			t.Fatalf("repartition %s: %v", name, err)
		}
	}

	got, err := RunJob(testWorld(newSize), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored %d-rank run diverges from the original %d-rank run (%d vs %d bytes)",
			newSize, oldSize, len(got), len(want))
	}
}

// TestRunJobOnRound: the round hook fires on every rank each round and its
// error fails the job.
func TestRunJobOnRound(t *testing.T) {
	var mu sync.Mutex // the hook runs on every rank's goroutine
	fired := map[string]bool{}
	cfg := JobConfig{
		Kind: JobKMeans, Points: 400, K: 3, Dims: 2, Seed: 1,
		OnRound: func(rank, round int) error {
			mu.Lock()
			fired[fmt.Sprintf("%d.%d", rank, round)] = true
			mu.Unlock()
			return nil
		},
	}
	if _, err := RunJob(testWorld(2), cfg, nil); err != nil {
		t.Fatal(err)
	}
	if !fired["0.0"] || !fired["1.0"] || !fired["0.1"] {
		t.Fatalf("round hook coverage: %v", fired)
	}
	boom := cfg
	boom.OnRound = func(rank, round int) error {
		if rank == 1 && round == 1 {
			return fmt.Errorf("scripted round failure")
		}
		return nil
	}
	if _, err := RunJob(testWorld(2), boom, nil); err == nil ||
		!strings.Contains(err.Error(), "scripted round failure") {
		t.Fatalf("got %v", err)
	}
}
