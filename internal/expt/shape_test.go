package expt

import (
	"testing"

	"mimir/internal/driver"
	"mimir/internal/platform"
	"mimir/internal/workloads"
)

// Golden-shape regression tests: the quantitative targets from DESIGN.md §3
// that define a faithful reproduction. Unlike the qualitative claims in
// expt_test.go, these pin the headline factors — Figure 1's out-of-core
// cliff and Figure 8's peak-memory reductions — so a future refactor cannot
// silently erode the reproduction while keeping the code green.

// TestShapeFig1SpillCliff asserts the paper's "nearly three orders of
// magnitude degradation in performance": MR-MPI (512M) at 32G, deep into
// the out-of-core regime, is at least 100x slower than the last in-memory
// point (4G). Measured: 3107 s vs 17.0 s, a 183x degradation (the 64G point
// reaches 373x but costs several real seconds per test run).
func TestShapeFig1SpillCliff(t *testing.T) {
	plat := platform.Comet()
	run := func(label string) Result {
		return Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.MaxPageSize,
			JobConfig: wcJob(workloads.Uniform, label)})
	}
	inMem := run("4G")
	spill := run("32G")
	if !inMem.InMemory() {
		t.Fatalf("4G should be in memory (err=%v, spilled=%d)", inMem.Err, inMem.SpilledBytes)
	}
	if spill.InMemory() {
		t.Fatal("32G should be out of core")
	}
	t.Logf("cliff: %.1f s in-memory at 4G vs %.1f s at 32G (%.0fx)",
		inMem.Time, spill.Time, spill.Time/inMem.Time)
	if spill.Time < 100*inMem.Time {
		t.Errorf("spill cliff %.0fx below the golden 100x (%.1f s vs %.1f s)",
			spill.Time/inMem.Time, spill.Time, inMem.Time)
	}
}

// TestShapeFig8PeakReductions asserts Figure 8's headline memory wins on
// one Comet node: Mimir's peak memory is at least 25% below MR-MPI (64M)
// for WC, 34% for OC, and 64% for BFS.
func TestShapeFig8PeakReductions(t *testing.T) {
	plat := platform.Comet()
	cases := []struct {
		name      string
		job       driver.JobConfig
		reduction float64
	}{
		{"WC", wcJob(workloads.Uniform, "256M"), 0.25},
		{"OC", driver.JobConfig{Kind: driver.JobOctree, Points: 1 << 14, Seed: Seed}, 0.34}, // 2^24 paper points
		{"BFS", driver.JobConfig{Kind: driver.JobBFS, Scale: 9, Seed: Seed}, 0.64},          // 2^19 paper vertices
	}
	for _, c := range cases {
		m := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: c.job})
		b := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.PageSize, JobConfig: c.job})
		if m.Failed() || b.Failed() {
			t.Fatalf("%s: unexpected failure (%v / %v)", c.name, m.Err, b.Err)
		}
		got := 1 - float64(m.PeakPerProc)/float64(b.PeakPerProc)
		t.Logf("%s: Mimir peak %d vs MR-MPI (64M) %d — %.1f%% reduction (golden >= %.0f%%)",
			c.name, m.PeakPerProc, b.PeakPerProc, 100*got, 100*c.reduction)
		if got < c.reduction {
			t.Errorf("%s: Mimir peak reduction %.1f%% below the golden %.0f%% (%d vs %d bytes)",
				c.name, 100*got, 100*c.reduction, m.PeakPerProc, b.PeakPerProc)
		}
	}
}
