package expt

import (
	"math"
	"strings"
	"testing"

	"mimir/internal/driver"
	"mimir/internal/platform"
	"mimir/internal/workloads"
)

// These tests assert the paper's qualitative claims on cheap, targeted runs
// (single specs rather than whole figures). The full sweeps live behind
// `go test -bench` and cmd/mimir-bench.

// wcJob is the WordCount job over a paper-scale dataset size.
func wcJob(dist workloads.Distribution, size string) driver.JobConfig {
	return driver.JobConfig{Kind: driver.JobWordCount, Dist: dist, TotalBytes: PaperSize(size), Seed: Seed}
}

func TestMRMPIInMemoryLimitsMatchPaper(t *testing.T) {
	// Figure 8a: MR-MPI (64M) handles 512M of uniform text on a Comet node
	// and spills beyond; MR-MPI (512M) handles 4G and spills beyond.
	plat := platform.Comet()
	cases := []struct {
		page     int
		size     string
		inMemory bool
	}{
		{plat.PageSize, "512M", true},
		{plat.PageSize, "1G", false},
		{plat.MaxPageSize, "4G", true},
		{plat.MaxPageSize, "8G", false},
	}
	for _, c := range cases {
		r := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: c.page,
			JobConfig: wcJob(workloads.Uniform, c.size)})
		if r.Failed() {
			t.Fatalf("page=%d size=%s failed: %v", c.page, c.size, r.Err)
		}
		if got := r.InMemory(); got != c.inMemory {
			t.Errorf("page=%d size=%s: inMemory=%v, want %v (spilled %d bytes)",
				c.page, c.size, got, c.inMemory, r.SpilledBytes)
		}
	}
}

func TestMimirRunsLargerThanMRMPI(t *testing.T) {
	// The headline claim: Mimir executes 16G of uniform text in memory on a
	// Comet node — 4x more than MR-MPI's best configuration.
	plat := platform.Comet()
	r := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir,
		JobConfig: wcJob(workloads.Uniform, "16G")})
	if !r.InMemory() {
		t.Fatalf("Mimir 16G not in memory: err=%v spilled=%d", r.Err, r.SpilledBytes)
	}
}

func TestMimirUsesLessMemoryThanMRMPI(t *testing.T) {
	// Figure 8: at sizes both can handle, Mimir's peak memory is at least
	// 25% below MR-MPI (64M).
	plat := platform.Comet()
	for _, dist := range []workloads.Distribution{workloads.Uniform, workloads.Wikipedia} {
		m := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: wcJob(dist, "256M")})
		b := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.PageSize,
			JobConfig: wcJob(dist, "256M")})
		if m.Failed() || b.Failed() {
			t.Fatalf("dist %v: unexpected failure (%v / %v)", dist, m.Err, b.Err)
		}
		if float64(m.PeakPerProc) > 0.75*float64(b.PeakPerProc) {
			t.Errorf("dist %v: Mimir peak %d not 25%% below MR-MPI %d", dist, m.PeakPerProc, b.PeakPerProc)
		}
	}
}

func TestInMemoryTimesComparable(t *testing.T) {
	// "As long as the dataset can be computed in memory, the execution
	// times of the two frameworks are comparable."
	plat := platform.Comet()
	m := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: wcJob(workloads.Uniform, "512M")})
	b := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.MaxPageSize,
		JobConfig: wcJob(workloads.Uniform, "512M")})
	if !m.InMemory() || !b.InMemory() {
		t.Fatal("expected both in memory at 512M")
	}
	ratio := m.Time / b.Time
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("in-memory time ratio Mimir/MR-MPI = %.2f, want within 2x", ratio)
	}
}

func TestSpillCliff(t *testing.T) {
	// Figure 1's shape: the first out-of-core point is at least 10x slower
	// than the last in-memory point at half its size.
	plat := platform.Comet()
	inMem := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.MaxPageSize,
		JobConfig: wcJob(workloads.Uniform, "4G")})
	spill := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.MaxPageSize,
		JobConfig: wcJob(workloads.Uniform, "8G")})
	if !inMem.InMemory() {
		t.Fatal("4G should be in memory")
	}
	if spill.InMemory() {
		t.Fatal("8G should spill")
	}
	if spill.Time < 10*inMem.Time {
		t.Errorf("spill time %.1f not >= 10x in-memory %.1f", spill.Time, inMem.Time)
	}
}

func TestMRMPIPeakIsDatasetIndependent(t *testing.T) {
	// MR-MPI's pages are static: peak memory does not grow with the data.
	plat := platform.Comet()
	small := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.PageSize,
		JobConfig: wcJob(workloads.Uniform, "256M")})
	big := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.PageSize,
		JobConfig: wcJob(workloads.Uniform, "4G")})
	if small.PeakPerProc != big.PeakPerProc {
		t.Errorf("MR-MPI peak varies with dataset: %d vs %d", small.PeakPerProc, big.PeakPerProc)
	}
}

func TestCPSExtendsMimirRange(t *testing.T) {
	// Figure 12a on Mira: baseline Mimir OOMs at 8G; with compression it
	// completes in memory — 16x MR-MPI's best (512M).
	plat := platform.Mira()
	base := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: wcJob(workloads.Uniform, "8G")})
	if !base.Failed() {
		t.Errorf("baseline Mimir at 8G on Mira should OOM (peak %d)", base.PeakPerProc)
	}
	job := wcJob(workloads.Uniform, "8G")
	job.CPS = true
	cps := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: job})
	if !cps.InMemory() {
		t.Errorf("Mimir(cps) at 8G on Mira should run in memory: err=%v", cps.Err)
	}
}

func TestCPSDoesNotChangeMRMPIPeak(t *testing.T) {
	// "With MR-MPI we do not observe any impact on peak memory usage."
	plat := platform.Comet()
	job := wcJob(workloads.Uniform, "2G")
	base := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.MaxPageSize, JobConfig: job})
	job.CPS = true
	cps := Run(Spec{Plat: plat, Nodes: 1, Engine: MRMPI, MRMPIPage: plat.MaxPageSize, JobConfig: job})
	if base.PeakPerProc != cps.PeakPerProc {
		t.Errorf("MR-MPI peak changed with cps: %d vs %d", base.PeakPerProc, cps.PeakPerProc)
	}
}

func TestLadderMonotoneMemory(t *testing.T) {
	// Figure 13b at 4G (Wikipedia, Mira): every added optimization must not
	// increase peak memory, and hint+pr must be well below baseline.
	plat := platform.Mira()
	run := func(hint, pr bool) Result {
		job := wcJob(workloads.Wikipedia, "2G")
		job.Hint, job.PR = hint, pr
		return Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: job})
	}
	base := run(false, false)
	hint := run(true, false)
	hintPR := run(true, true)
	if base.Failed() || hint.Failed() || hintPR.Failed() {
		t.Fatalf("unexpected failures: %v %v %v", base.Err, hint.Err, hintPR.Err)
	}
	if hint.PeakPerProc > base.PeakPerProc {
		t.Errorf("hint increased peak: %d > %d", hint.PeakPerProc, base.PeakPerProc)
	}
	if float64(hintPR.PeakPerProc) > 0.6*float64(base.PeakPerProc) {
		t.Errorf("hint+pr peak %d not well below baseline %d", hintPR.PeakPerProc, base.PeakPerProc)
	}
}

func TestHintImprovesBFSTime(t *testing.T) {
	// "The KV-hint optimization also improves the performance of BFS."
	plat := platform.Mira()
	job := driver.JobConfig{Kind: driver.JobBFS, Scale: 9, Seed: Seed}
	base := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: job})
	job.Hint = true
	hint := Run(Spec{Plat: plat, Nodes: 1, Engine: Mimir, JobConfig: job})
	if base.Failed() || hint.Failed() {
		t.Fatalf("failures: %v %v", base.Err, hint.Err)
	}
	if hint.Time >= base.Time {
		t.Errorf("hint BFS time %.2f not below baseline %.2f", hint.Time, base.Time)
	}
}

func TestWeakScalingMimirFlat(t *testing.T) {
	// Figure 10 (scaled down): Mimir's weak-scaling time at 8 nodes is
	// within 2x of 2 nodes.
	plat := platform.Comet()
	at := func(nodes int) Result {
		job := wcJob(workloads.Uniform, "256M")
		job.TotalBytes *= int64(nodes)
		return Run(Spec{Plat: plat, Nodes: nodes, RanksPerNode: 8, Engine: Mimir, JobConfig: job})
	}
	t2, t8 := at(2), at(8)
	if t2.Failed() || t8.Failed() {
		t.Fatalf("failures: %v %v", t2.Err, t8.Err)
	}
	if t8.Time > 2*t2.Time {
		t.Errorf("Mimir weak scaling: %.1fs at 8 nodes vs %.1fs at 2 (not flat)", t8.Time, t2.Time)
	}
}

func TestFig7Saving(t *testing.T) {
	// The KV-hint must save 20-40% of KV bytes (paper: ~26%).
	def, hinted := kvSizes(PaperSize("1G"))
	saving := 1 - float64(hinted)/float64(def)
	if saving < 0.20 || saving > 0.40 {
		t.Errorf("hint saving = %.1f%%, want 20-40%%", 100*saving)
	}
}

func TestSizeLabelRoundTrip(t *testing.T) {
	for _, label := range []string{"256M", "512M", "1G", "4G", "64G"} {
		if got := SizeLabel(PaperSize(label)); got != label {
			t.Errorf("SizeLabel(PaperSize(%q)) = %q", label, got)
		}
	}
}

func TestBytesToPaperGB(t *testing.T) {
	// 1 MiB scaled is 1 GiB in paper terms.
	if got := BytesToPaperGB(1 << 20); got != 1.0 {
		t.Errorf("BytesToPaperGB(1MiB) = %v, want 1", got)
	}
}

func TestFigureAccessors(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", XLabel: "n"}
	f.Add("A", "1", Result{Time: 1, PeakPerProc: 1 << 20})
	f.Add("B", "1", Result{Time: math.NaN(), Err: errFake, PeakPerProc: 0})
	f.Add("A", "2", Result{Time: 2, SpilledBytes: 10})
	if got := f.SeriesNames(); len(got) != 2 || got[0] != "A" {
		t.Errorf("SeriesNames = %v", got)
	}
	if got := f.XValues(); len(got) != 2 || got[1] != "2" {
		t.Errorf("XValues = %v", got)
	}
	p, ok := f.Get("B", "1")
	if !ok || p.Note != "OOM" {
		t.Errorf("Get(B,1) = %+v, %v", p, ok)
	}
	p, _ = f.Get("A", "2")
	if p.Note != "spill" || p.OK() {
		t.Errorf("spill point = %+v", p)
	}
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"OOM", "(2.0)", "1.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

var errFake = errorString("fake")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestMultiNodeMemoryIsPerNode(t *testing.T) {
	// Running the same total dataset on more nodes must lower the
	// per-process peak: the data spreads over more arenas.
	plat := platform.Comet()
	one := Run(Spec{Plat: plat, Nodes: 1, RanksPerNode: 8, Engine: Mimir,
		JobConfig: wcJob(workloads.Uniform, "1G")})
	four := Run(Spec{Plat: plat, Nodes: 4, RanksPerNode: 8, Engine: Mimir,
		JobConfig: wcJob(workloads.Uniform, "1G")})
	if one.Failed() || four.Failed() {
		t.Fatalf("failures: %v %v", one.Err, four.Err)
	}
	if four.PeakPerProc >= one.PeakPerProc {
		t.Errorf("4-node per-proc peak %d not below 1-node %d", four.PeakPerProc, one.PeakPerProc)
	}
}

func TestSkewFindsTheHotNode(t *testing.T) {
	// On skewed data the busiest node's peak (what Result reports) must
	// exceed the average node's: the hot words concentrate somewhere.
	plat := platform.Comet()
	r := Run(Spec{Plat: plat, Nodes: 4, RanksPerNode: 8, Engine: Mimir,
		JobConfig: wcJob(workloads.Wikipedia, "2G")})
	u := Run(Spec{Plat: plat, Nodes: 4, RanksPerNode: 8, Engine: Mimir,
		JobConfig: wcJob(workloads.Uniform, "2G")})
	if r.Failed() || u.Failed() {
		t.Fatalf("failures: %v %v", r.Err, u.Err)
	}
	if r.PeakPerProc <= u.PeakPerProc {
		t.Errorf("skewed peak %d not above uniform peak %d", r.PeakPerProc, u.PeakPerProc)
	}
}

func TestLog2Int(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 128: 7}
	for n, want := range cases {
		if got := log2int(n); got != want {
			t.Errorf("log2int(%d) = %d, want %d", n, got, want)
		}
	}
}
