package workloads

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mimir/internal/core"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
)

// mrcWorld runs fn on every rank of a fresh in-process world with an
// unlimited shared arena.
func mrcWorld(t *testing.T, size int, fn func(c *mpi.Comm, e *MimirEngine) error) {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Size: size, Net: testNet()})
	arena := mem.NewArena(0)
	err := w.Run(func(c *mpi.Comm) error {
		e := NewMimirEngine(c, arena)
		e.PageSize = 1 << 10
		e.CommBuf = 8 << 10
		return fn(c, e)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTeraSortOracle runs the sort at several sizes, row counts and row
// geometries and feeds every rank's block to the linear verifier: global
// order, boundary disjointness, and input-multiset equality. The 2+3-byte
// rows are shorter than the sort's 8-byte prefix and repeat keys with
// different payloads.
func TestTeraSortOracle(t *testing.T) {
	for _, tc := range []struct {
		ranks    int
		rows     int64
		key, val int // 0 = the default geometry
	}{{1, 256, 0, 0}, {4, 2048, 0, 0}, {4, 3, 0, 0}, {4, 0, 0, 0}, {8, 1000, 0, 0},
		{1, 3000, 2, 3}, {2, 3000, 2, 3}, {3, 3000, 2, 3}} {
		name := fmt.Sprintf("r%d_n%d", tc.ranks, tc.rows)
		if tc.key != 0 {
			name += fmt.Sprintf("_k%dv%d", tc.key, tc.val)
		}
		t.Run(name, func(t *testing.T) {
			cfg := TeraSortConfig{Rows: tc.rows, Seed: 7, KeyBytes: tc.key, ValBytes: tc.val}
			blocks := make([][]byte, tc.ranks)
			var mu sync.Mutex
			mrcWorld(t, tc.ranks, func(c *mpi.Comm, e *MimirEngine) error {
				var blk []byte
				res, err := RunTeraSort(e, nil, cfg, StageOpts{Hint: TeraSortHint(cfg)},
					func(k, v []byte) error {
						blk = append(append(blk, k...), v...)
						return nil
					})
				if err != nil {
					return err
				}
				if res.Rounds != 1 {
					return fmt.Errorf("terasort reported %d rounds", res.Rounds)
				}
				mu.Lock()
				blocks[c.Rank()] = blk
				mu.Unlock()
				return nil
			})
			if err := VerifyTeraSort(cfg, blocks); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTeraSortVerifierCatches sabotages a correct run three ways and
// checks the oracle rejects each.
func TestTeraSortVerifierCatches(t *testing.T) {
	cfg := TeraSortConfig{Rows: 64, Seed: 3}
	rowLen := DefaultTeraKeyBytes + DefaultTeraValBytes
	var rows [][]byte
	for i := int64(0); i < cfg.Rows; i++ {
		row := make([]byte, rowLen)
		teraRow(cfg.Seed, i, row[:DefaultTeraKeyBytes], row[DefaultTeraKeyBytes:])
		rows = append(rows, row)
	}
	sorted := func() []byte {
		all := append([][]byte(nil), rows...)
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if bytes.Compare(all[j], all[i]) < 0 {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		return bytes.Join(all, nil)
	}()
	if err := VerifyTeraSort(cfg, [][]byte{sorted}); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	// Swap two rows: order violation.
	bad := append([]byte(nil), sorted...)
	copy(bad[0:rowLen], sorted[rowLen:2*rowLen])
	copy(bad[rowLen:2*rowLen], sorted[0:rowLen])
	if err := VerifyTeraSort(cfg, [][]byte{bad}); err == nil {
		t.Fatal("order violation not caught")
	}
	// Drop a row: multiset violation.
	if err := VerifyTeraSort(cfg, [][]byte{sorted[rowLen:]}); err == nil {
		t.Fatal("missing row not caught")
	}
	// Duplicate a key across a block boundary: splitter violation.
	split := len(sorted) / rowLen / 2 * rowLen
	b0 := append([]byte(nil), sorted[:split+rowLen]...)
	if err := VerifyTeraSort(cfg, [][]byte{b0, sorted[split:]}); err == nil {
		t.Fatal("boundary straddle not caught")
	}
}

// TestPageRankConverges checks the iteration terminates by residual (not
// the round cap), conserves total probability mass to within the known
// truncation leak, and is invariant to partial reduction.
func TestPageRankConverges(t *testing.T) {
	cfg := PageRankConfig{Scale: 7, Seed: 11}
	type run struct {
		rounds int
		scores string
	}
	do := func(pr bool) run {
		var mu sync.Mutex
		var b bytes.Buffer
		var rounds int
		mrcWorld(t, 4, func(c *mpi.Comm, e *MimirEngine) error {
			opts := StageOpts{Hint: PageRankHint()}
			if pr {
				opts.PartialReduce = Int64VecAdd
			}
			var local bytes.Buffer
			res, err := RunPageRank(e, nil, cfg, opts, MultiRound{}, func(v uint64, s int64) error {
				fmt.Fprintf(&local, "%d %d\n", v, s)
				return nil
			})
			if err != nil {
				return err
			}
			if !res.Converged {
				return fmt.Errorf("rank %d: did not converge in %d rounds (residual %d)",
					c.Rank(), res.Rounds, res.Residual)
			}
			mu.Lock()
			rounds = res.Rounds
			b.Write(local.Bytes()) // unordered across ranks; content-compare via sums
			mu.Unlock()
			return nil
		})
		return run{rounds, canonicalLines(b.Bytes())}
	}
	base := do(false)
	if base.rounds < 3 {
		t.Fatalf("suspiciously fast convergence: %d rounds", base.rounds)
	}
	// Mass conservation (up to the deterministic dangling truncation leak).
	var mass int64
	for _, line := range bytes.Split([]byte(base.scores), []byte{'\n'}) {
		var v uint64
		var s int64
		if len(line) == 0 {
			continue
		}
		fmt.Sscanf(string(line), "%d %d", &v, &s)
		mass += s
	}
	n := int64(1) << 7
	want := n * PageRankOne
	if mass < want*9/10 || mass > want*11/10 {
		t.Fatalf("total mass %d far from %d", mass, want)
	}
	if alt := do(true); alt.rounds != base.rounds || alt.scores != base.scores {
		t.Fatalf("pagerank output varies with PR (%d vs %d rounds)", alt.rounds, base.rounds)
	}
}

// canonicalLines sorts newline-separated lines for order-independent
// comparison.
func canonicalLines(b []byte) string {
	lines := bytes.Split(b, []byte{'\n'})
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if bytes.Compare(lines[j], lines[i]) < 0 {
				lines[i], lines[j] = lines[j], lines[i]
			}
		}
	}
	return string(bytes.Join(lines, []byte{'\n'}))
}

// TestKMeansConverges checks convergence, that every point is accounted
// for, and invariance to partial reduction and the sampling partitioner (whose
// hot-key split engages on K hot centroid keys when PR is commutative).
func TestKMeansConverges(t *testing.T) {
	cfg := KMeansConfig{Points: 2000, K: 4, Dims: 2, Seed: 9}
	do := func(pr bool, partName string) KMeansResult {
		var res KMeansResult
		mrcWorld(t, 4, func(c *mpi.Comm, e *MimirEngine) error {
			if partName != "" {
				p, err := partition.ByName(partName)
				if err != nil {
					return err
				}
				e.Partitioner = p
			}
			opts := StageOpts{Hint: KMeansHint(cfg)}
			if pr {
				opts.PartialReduce = Int64VecAdd
			}
			r, err := RunKMeans(e, nil, cfg, opts, MultiRound{})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				res = r
			}
			return nil
		})
		return res
	}
	base := do(false, "")
	if !base.Converged {
		t.Fatalf("did not converge in %d rounds (movement %d)", base.Rounds, base.Movement)
	}
	if base.Rounds < 2 {
		t.Fatalf("suspiciously fast convergence: %d rounds", base.Rounds)
	}
	var n int64
	for _, c := range base.Counts {
		n += c
	}
	if n != cfg.Points {
		t.Fatalf("final assignment covers %d of %d points", n, cfg.Points)
	}
	for _, alt := range []KMeansResult{do(true, ""), do(true, "sample"), do(false, "sample")} {
		if alt.Rounds != base.Rounds || fmt.Sprint(alt.Centroids) != fmt.Sprint(base.Centroids) ||
			fmt.Sprint(alt.Counts) != fmt.Sprint(base.Counts) {
			t.Fatalf("kmeans table varies with PR/partitioner:\n%v\n%v", alt, base)
		}
	}
}

// TestRunRoundsCheckpointCadence pins the naming rule: every round carries
// the checkpoint "<base>.r<N>".
func TestRunRoundsCheckpointCadence(t *testing.T) {
	base := &core.Checkpoint{Name: "job7"}
	var seen []string
	mrcWorld(t, 1, func(c *mpi.Comm, e *MimirEngine) error {
		_, err := RunRounds(e, StageOpts{}, MultiRound{
			MaxRounds:  5,
			Checkpoint: base,
		}, func(round int, opts StageOpts) (int64, StageStats, error) {
			name := "-"
			if opts.Checkpoint != nil {
				name = opts.Checkpoint.Name
			}
			seen = append(seen, name)
			return 1, StageStats{}, nil // never converges; MaxRounds stops it
		})
		return err
	})
	want := fmt.Sprint([]string{"job7.r0", "job7.r1", "job7.r2", "job7.r3", "job7.r4"})
	if fmt.Sprint(seen) != want {
		t.Fatalf("cadence %v, want %v", seen, want)
	}
}

// TestRunRoundsThreshold: votes below the threshold end the loop and are
// reported as convergence; MaxRounds exhaustion is not.
func TestRunRoundsThreshold(t *testing.T) {
	votes := []int64{100, 40, 9}
	mrcWorld(t, 1, func(c *mpi.Comm, e *MimirEngine) error {
		res, err := RunRounds(e, StageOpts{}, MultiRound{MaxRounds: 10, Threshold: 10},
			func(round int, _ StageOpts) (int64, StageStats, error) {
				return votes[round], StageStats{}, nil
			})
		if err != nil {
			return err
		}
		if !res.Converged || res.Rounds != 3 || res.LastVote != 9 {
			return fmt.Errorf("got %+v", res)
		}
		capped, err := RunRounds(e, StageOpts{}, MultiRound{MaxRounds: 2},
			func(round int, _ StageOpts) (int64, StageStats, error) {
				return 1, StageStats{}, nil
			})
		if err != nil {
			return err
		}
		if capped.Converged || capped.Rounds != 2 {
			return fmt.Errorf("got %+v", capped)
		}
		return nil
	})
}

// TestBFSParents: the refactored BFS exposes its parents partition, owned
// by key hash and rooted correctly.
func TestBFSParents(t *testing.T) {
	cfg := BFSConfig{Scale: 7, Seed: 5, Root: 3, Validate: true}
	var total int64
	var mu sync.Mutex
	mrcWorld(t, 4, func(c *mpi.Comm, e *MimirEngine) error {
		res, err := RunBFS(e, nil, cfg, StageOpts{Hint: BFSHint()}, MultiRound{})
		if err != nil {
			return err
		}
		for v := range res.Parents {
			if vertexOwner(v, c.Size()) != c.Rank() {
				return fmt.Errorf("rank %d holds parent entry for foreign vertex %d", c.Rank(), v)
			}
		}
		mu.Lock()
		total += int64(len(res.Parents))
		mu.Unlock()
		if own := vertexOwner(cfg.Root, c.Size()); own == c.Rank() {
			if res.Parents[cfg.Root] != cfg.Root {
				return fmt.Errorf("root parent %d", res.Parents[cfg.Root])
			}
		}
		if res.Visited == 0 {
			return fmt.Errorf("nothing visited")
		}
		mu.Lock()
		defer mu.Unlock()
		return nil
	})
	// Every visited vertex appears exactly once across ranks.
	var visited int64
	mrcWorld(t, 4, func(c *mpi.Comm, e *MimirEngine) error {
		res, err := RunBFS(e, nil, cfg, StageOpts{}, MultiRound{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			visited = res.Visited
		}
		return nil
	})
	if total != visited {
		t.Fatalf("parents entries %d != visited %d", total, visited)
	}
}
