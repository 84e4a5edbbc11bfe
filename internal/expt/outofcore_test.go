package expt

import (
	"errors"
	"math"
	"testing"

	"mimir/internal/core"
	"mimir/internal/mem"
	"mimir/internal/platform"
	"mimir/internal/workloads"
)

// skipUnderRace skips the minutes-long out-of-core scenarios under the race
// detector (~10x slower, past the default package timeout). The spill
// Group's concurrency is race-tested where it is cheap: internal/spill's
// unit tests and internal/workloads' TestSpillEquivalence.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("out-of-core scenario takes minutes under -race")
	}
}

// miniMira is Mira with an eighth of the node: same costs, page sizes, and
// file systems, but 2 cores and "2 GB" of memory, so the out-of-core
// acceptance scenario (a dataset at 2x node memory) runs in seconds rather
// than minutes. The ratios that matter — dataset/node-memory,
// page/node-memory, and memory per core — are what the full-scale figure
// uses.
func miniMira() *platform.Platform {
	p := platform.Mira()
	p.Name = "Mira (reduced)"
	p.CoresPerNode = 2
	p.NodeMemory = 2 * platform.MiB
	return p
}

// TestOutOfCorePastTheMemoryWall is the subsystem's acceptance scenario at
// the experiment level: WordCount on Wikipedia-skewed text at 2x node
// memory fails with ErrNoMemory under the paper's Error policy, and the
// identical spec completes under SpillWhenNeeded — with real spill traffic,
// I/O time on the simulated clock, and the node arena still within its
// capacity. (Output equality between the policies is asserted exactly in
// internal/core's spill tests; here the engines run under the platform
// harness.)
func TestOutOfCorePastTheMemoryWall(t *testing.T) {
	skipUnderRace(t)
	plat := miniMira()
	spec := Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: wcJob(workloads.Wikipedia, "4G")}

	fail := Run(spec)
	if !fail.Failed() || !errors.Is(fail.Err, mem.ErrNoMemory) {
		t.Fatalf("Error policy at 2x node memory: err=%v, want ErrNoMemory", fail.Err)
	}

	spec.OutOfCore = core.SpillWhenNeeded
	r := Run(spec)
	if r.Failed() {
		t.Fatalf("SpillWhenNeeded at 2x node memory: %v", r.Err)
	}
	if r.SpilledBytes == 0 {
		t.Fatalf("completed 2x node memory without spilling (peak/proc %d)", r.PeakPerProc)
	}
	if r.SpillIOSec <= 0 {
		t.Errorf("spill traffic of %d bytes charged no I/O time", r.SpilledBytes)
	}
	if peak := r.PeakPerProc * int64(plat.CoresPerNode); peak > plat.NodeMemory {
		t.Errorf("node peak %d exceeds node memory %d", peak, plat.NodeMemory)
	}
	if math.IsNaN(r.Time) || r.Time <= 0 {
		t.Errorf("spill run reported no execution time: %v", r.Time)
	}
}

// TestOutOfCoreCliff: Mimir's spill path pays for its completion the same
// way MR-MPI's does — the identical job run out of core must be far slower
// than in memory, mirroring Figure 1's cliff. Both runs process the same 4G
// dataset on the same 2-core node; only the node memory differs (a "32 GB"
// node holds the whole working set, the "2 GB" node forces spilling).
func TestOutOfCoreCliff(t *testing.T) {
	skipUnderRace(t)
	roomy := miniMira()
	roomy.NodeMemory = 32 * platform.MiB
	inMem := Run(Spec{Plat: roomy, Nodes: 1, Engine: Mimir, JobConfig: wcJob(workloads.Wikipedia, "4G")})
	if !inMem.InMemory() {
		t.Fatalf("4G on a 32G node should run in memory: err=%v spilled=%d", inMem.Err, inMem.SpilledBytes)
	}
	job := wcJob(workloads.Wikipedia, "4G")
	job.OutOfCore = core.SpillWhenNeeded
	spill := Run(Spec{Plat: miniMira(), Nodes: 1, Engine: Mimir, JobConfig: job})
	if spill.Failed() {
		t.Fatalf("4G spill run failed: %v", spill.Err)
	}
	if spill.Time < 10*inMem.Time {
		t.Errorf("out-of-core time %.1f not >= 10x in-memory %.1f", spill.Time, inMem.Time)
	}
}
