package workloads

import (
	"fmt"

	"mimir/internal/core"
	"mimir/internal/mpi"
)

// This file is the shared driver for iterative (multi-round) jobs — BFS,
// PageRank, k-means. Each round runs one MapReduce stage (or more) through
// the engine, then the ranks take a collective convergence vote: every rank
// contributes an int64 (frontier size, fixed-point residual, centroid
// movement), the votes are summed with one AllreduceInt64 — the round
// barrier — and the job stops once the global sum falls to the configured
// threshold. Because the vote rides the same deterministic collectives as
// the data, every rank agrees on the round count without any extra
// coordination, on every transport.
//
// Checkpoint naming: every round checkpoints. A multi-round job cannot
// reuse one checkpoint name across rounds (the second round would restore
// the first round's shuffle), so MultiRound derives a per-round name
// "<base>.r<N>" and threads it through StageOpts. A re-run then restores
// round after round, recomputing votes from the restored post-shuffle
// data, and terminates after the same number of rounds — which is what
// lets the elastic machinery repartition every round's checkpoint onto a
// new world size mid-iteration.

// MultiRound configures the shared round driver.
type MultiRound struct {
	// MaxRounds caps the iteration (0 = unbounded; the convergence vote is
	// then the only exit).
	MaxRounds int
	// Threshold is the convergence bound: the job stops after the first
	// round whose global vote sum is <= Threshold (default 0, i.e. stop
	// when no rank has work left).
	Threshold int64
	// Checkpoint, when set, is the job's base checkpoint: round N's stage
	// checkpoints under "<Name>.r<N>" (see RoundCheckpoint). Any Checkpoint
	// already present in the StageOpts passed to RunRounds is ignored — a
	// single shared name across rounds would be wrong.
	Checkpoint *core.Checkpoint
	// OnRound is called on every rank at the top of each round, before the
	// round's stage. It is the fault-injection seam: the job service's
	// scripted mid-iteration crash (Spec.CrashRound) lives here.
	OnRound func(round int) error
}

// RoundFunc runs one round's stage(s) with the per-round StageOpts (the
// round's checkpoint already threaded in) and returns this rank's
// convergence vote plus the round's stage stats.
type RoundFunc func(round int, opts StageOpts) (vote int64, stats StageStats, err error)

// RoundResult summarizes a multi-round run on this rank.
type RoundResult struct {
	// Rounds is the number of rounds executed (identical on every rank).
	Rounds int
	// Converged reports whether the vote reached the threshold (as opposed
	// to hitting MaxRounds).
	Converged bool
	// LastVote is the final round's global vote sum.
	LastVote int64
	Stats    StageStats
}

// RoundCheckpoint derives round N's checkpoint from a job's base checkpoint
// (nil in, nil out). Resize paths repartition each round's checkpoint under
// the same naming rule.
func RoundCheckpoint(ck *core.Checkpoint, round int) *core.Checkpoint {
	if ck == nil {
		return nil
	}
	return &core.Checkpoint{FS: ck.FS, Name: fmt.Sprintf("%s.r%d", ck.Name, round)}
}

// NamedCheckpoint derives a phase checkpoint ("<base>.<suffix>") from a
// job's base checkpoint — used for one-off stages outside the round loop,
// like PageRank's adjacency build.
func NamedCheckpoint(ck *core.Checkpoint, suffix string) *core.Checkpoint {
	if ck == nil {
		return nil
	}
	return &core.Checkpoint{FS: ck.FS, Name: fmt.Sprintf("%s.%s", ck.Name, suffix)}
}

// RunRounds drives fn round by round until the convergence vote reaches
// mr.Threshold or MaxRounds is hit. All ranks of e's communicator must call
// it with the same configuration; the vote allreduce is the per-round
// barrier that keeps them in lockstep.
func RunRounds(e Engine, opts StageOpts, mr MultiRound, fn RoundFunc) (RoundResult, error) {
	comm := e.Comm()
	var res RoundResult
	for round := 0; mr.MaxRounds <= 0 || round < mr.MaxRounds; round++ {
		if mr.OnRound != nil {
			if err := mr.OnRound(round); err != nil {
				return res, err
			}
		}
		ropts := opts
		ropts.Checkpoint = RoundCheckpoint(mr.Checkpoint, round)
		vote, stats, err := fn(round, ropts)
		if err != nil {
			return res, err
		}
		res.Stats.accumulate(stats)
		res.Rounds++
		total, err := comm.AllreduceInt64([]int64{vote}, mpi.OpSum)
		if err != nil {
			return res, err
		}
		res.LastVote = total[0]
		if total[0] <= mr.Threshold {
			res.Converged = true
			break
		}
	}
	return res, nil
}
