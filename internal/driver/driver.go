// Package driver runs complete distributed jobs against a world, whatever
// transport backs it — the same code path serves the in-process world and
// the multi-process TCP world, which is what makes the two directly
// comparable: one job definition, one deterministic corpus, byte-identical
// output.
//
// JobConfig is the single description of a job, RunJob the single run path,
// and kinds.go the single table of what a job kind is (DESIGN.md §4h).
package driver

import (
	"mimir/internal/metrics"
	"mimir/internal/mpi"
)

// WordCountConfig is JobConfig under its pre-JobConfig name. It and WordCount
// exist only because the frozen bench/ module spells them; in-repo code
// uses JobConfig and RunJob.
type WordCountConfig = JobConfig

// WordCount is RunJob with Kind set to wordcount (kept for bench/ only).
func WordCount(world *mpi.World, cfg WordCountConfig, sum *metrics.Summary) ([]byte, error) {
	cfg.Kind = JobWordCount
	return RunJob(world, cfg, sum)
}
