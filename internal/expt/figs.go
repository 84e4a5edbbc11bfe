package expt

import (
	"fmt"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/kvbuf"
	"mimir/internal/mrmpi"
	"mimir/internal/platform"
	"mimir/internal/workloads"
)

// Seed used by all experiments (datasets are deterministic).
const Seed = 42

// All maps figure ids to their generators, in paper order.
var All = []struct {
	ID   string
	Gen  func() []*Figure
	Note string
}{
	{"fig1", Fig1, "MR-MPI single-node WordCount cliff"},
	{"fig7", Fig7, "KV-hint size saving"},
	{"fig8", Fig8, "Comet single node: Mimir vs MR-MPI"},
	{"fig9", Fig9, "Mira single node: Mimir vs MR-MPI"},
	{"fig10", Fig10, "Weak scalability of WC"},
	{"fig11", Fig11, "KV compression on Comet"},
	{"fig12", Fig12, "KV compression on Mira"},
	{"fig13", Fig13, "Optimization ladder on Mira"},
	{"fig14", Fig14, "Weak scalability of the ladder on Mira"},
	{"figspill", FigSpill, "Out-of-core: Mimir spill vs MR-MPI modes"},
	{"figskew", FigSkew, "Skew matrix: hash vs sample partitioning"},
	{"figmrc", FigMRC, "MRC ablation: TeraSort / PageRank / k-means"},
}

// variant is one value of a sweep axis: a row (dataset size, node count,
// zipf exponent, job) or a series (engine, optimization rung), written as
// the edit it makes to a cell's spec.
type variant struct {
	name string
	set  func(*Spec)
}

// cross declares one panel's cells: every row crossed with every series,
// rows outermost, each cell the base spec edited by its row and then its
// series.
func cross(base Spec, rows, series []variant) []Cell {
	var cells []Cell
	for _, row := range rows {
		for _, ser := range series {
			spec := base
			row.set(&spec)
			ser.set(&spec)
			cells = append(cells, Cell{Series: ser.name, X: row.name, Spec: spec})
		}
	}
	return cells
}

// panel runs cells and plots them as one figure panel.
func panel(id, title, xlabel string, cells []Cell) *Figure {
	f := &Figure{ID: id, Title: title, XLabel: xlabel}
	for _, c := range RunCells(cells) {
		f.Add(c.Series, c.X, c.Result)
	}
	return f
}

// Row axes: the paper's dataset sweeps. Each benchmark is a driver job kind
// plus the one size field its sweep varies.

// wcRows sweeps WordCount over paper-scale dataset sizes.
func wcRows(dist workloads.Distribution, labels ...string) []variant {
	rows := make([]variant, len(labels))
	for i, label := range labels {
		rows[i] = variant{label, func(s *Spec) {
			s.Kind, s.Dist, s.TotalBytes = driver.JobWordCount, dist, PaperSize(label)
		}}
	}
	return rows
}

// pow2Rows sweeps 2^lo..2^hi paper-scale items (1024x fewer here) through
// set, which receives the scaled exponent.
func pow2Rows(lo, hi int, set func(s *Spec, exp int)) []variant {
	var rows []variant
	for n := lo; n <= hi; n++ {
		rows = append(rows, variant{Pow2Label(n), func(s *Spec) { set(s, n-10) }})
	}
	return rows
}

// ocRows sweeps octree clustering over 2^lo..2^hi paper-scale points.
func ocRows(lo, hi int) []variant {
	return pow2Rows(lo, hi, func(s *Spec, exp int) { s.Kind, s.Points = driver.JobOctree, 1<<exp })
}

// bfsRows sweeps BFS over 2^lo..2^hi paper-scale vertices.
func bfsRows(lo, hi int) []variant {
	return pow2Rows(lo, hi, func(s *Spec, exp int) { s.Kind, s.Scale = driver.JobBFS, exp })
}

// nodeRows is the weak-scaling axis: the base spec holds the per-node
// dataset, each row scales it to the job total for its node count.
func nodeRows(nodes ...int) []variant {
	rows := make([]variant, len(nodes))
	for i, n := range nodes {
		rows[i] = variant{fmt.Sprint(n), func(s *Spec) {
			s.Nodes = n
			s.TotalBytes *= int64(n)
			s.Points *= int64(n)
			if s.Scale > 0 {
				s.Scale += log2int(n)
			}
		}}
	}
	return rows
}

func log2int(n int) int {
	k := 0
	for 1<<uint(k+1) <= n {
		k++
	}
	return k
}

// Series axes: engines and optimization rungs.

func mimirV(name string, hint, pr, cps bool) variant {
	return variant{name, func(s *Spec) { s.Engine, s.Hint, s.PR, s.CPS = Mimir, hint, pr, cps }}
}

func mrmpiV(name string, page int, cps bool) variant {
	return variant{name, func(s *Spec) { s.Engine, s.MRMPIPage, s.CPS = MRMPI, page, cps }}
}

// oneNode is the figures' base spec: one node of plat, the experiments'
// seed (the weak-scaling rows overwrite Nodes).
func oneNode(plat *platform.Platform) Spec {
	return Spec{Plat: plat, Nodes: 1, JobConfig: driver.JobConfig{Seed: Seed}}
}

// Fig1 reproduces Figure 1: single-node execution time of WordCount with
// MR-MPI on Comet, 1G to 64G. Beyond the in-memory limit the time collapses
// by orders of magnitude (the paper's "1000X degradation in performance").
func Fig1() []*Figure {
	plat := platform.Comet()
	return []*Figure{panel("fig1", "Single-node execution time of WordCount with MR-MPI on Comet", "dataset size",
		cross(oneNode(plat), wcRows(workloads.Uniform, "1G", "2G", "4G", "8G", "16G", "32G", "64G"),
			[]variant{mrmpiV("MR-MPI (512M)", plat.MaxPageSize, false)}))}
}

// Fig7 reproduces Figure 7: total KV bytes of WordCount over the Wikipedia
// dataset with and without the KV-hint (value length fixed at 8 bytes, key a
// NUL-terminated string). The paper measures ~26% savings.
func Fig7() []*Figure {
	f := &Figure{ID: "fig7", Title: "KV size of WordCount with Wikipedia dataset", XLabel: "dataset size",
		NoTime: true, MemLabel: "KV size (GB)"}
	for _, label := range []string{"8G", "16G", "32G"} {
		def, hinted := kvSizes(PaperSize(label))
		f.AddRaw(Point{Series: "without KV-hint", X: label, PeakGB: BytesToPaperGB(def)})
		f.AddRaw(Point{Series: "with KV-hint", X: label, PeakGB: BytesToPaperGB(hinted)})
	}
	return []*Figure{f}
}

// kvSizes computes the encoded KV bytes of the WC (Wikipedia) map output
// under the default and hinted encodings.
func kvSizes(totalBytes int64) (def, hinted int64) {
	defHint := kvbuf.DefaultHint()
	wcHint := workloads.WCHint()
	val := make([]byte, 8)
	in := workloads.TextInput(nil, nil, workloads.Wikipedia, Seed, totalBytes, 0, 1)
	_ = in(func(rec core.Record) error {
		data := rec.Val
		start := -1
		for i := 0; i <= len(data); i++ {
			if i < len(data) && data[i] != ' ' {
				if start < 0 {
					start = i
				}
				continue
			}
			if start >= 0 {
				word := data[start:i]
				def += int64(defHint.EncodedSize(word, val))
				hinted += int64(wcHint.EncodedSize(word, val))
				start = -1
			}
		}
		return nil
	})
	return def, hinted
}

// fourPanels declares the paper's four-benchmark figure shape on one node:
// WC (Uniform), WC (Wikipedia), OC and BFS, each panel its own row sweep
// and series set.
func fourPanels(id, prefix string, plat *platform.Platform, wcLabels []string,
	oc, bfs []variant, series func(kind string) []variant) []*Figure {
	base, where := oneNode(plat), ", one "+plat.Name+" node"
	return []*Figure{
		panel(id+"a", prefix+"WC (Uniform)"+where, "dataset size",
			cross(base, wcRows(workloads.Uniform, wcLabels...), series(driver.JobWordCount))),
		panel(id+"b", prefix+"WC (Wikipedia)"+where, "dataset size",
			cross(base, wcRows(workloads.Wikipedia, wcLabels...), series(driver.JobWordCount))),
		panel(id+"c", prefix+"OC"+where, "number of points",
			cross(base, oc, series(driver.JobOctree))),
		panel(id+"d", prefix+"BFS"+where, "number of vertices",
			cross(base, bfs, series(driver.JobBFS))),
	}
}

// vsMRMPI is the Figure 8/9/10 series set: Mimir against MR-MPI at the
// default and the largest feasible page.
func vsMRMPI(plat *platform.Platform) []variant {
	return []variant{
		mimirV("Mimir", false, false, false),
		mrmpiV(fmt.Sprintf("MR-MPI (%s)", SizeLabel(int64(plat.PageSize))), plat.PageSize, false),
		mrmpiV(fmt.Sprintf("MR-MPI (%s)", SizeLabel(int64(plat.MaxPageSize))), plat.MaxPageSize, false),
	}
}

// Fig8 reproduces Figure 8: peak memory usage and execution times of the
// three benchmarks on one Comet node, Mimir vs MR-MPI with 64 MB and 512 MB
// pages.
func Fig8() []*Figure {
	plat := platform.Comet()
	return fourPanels("fig8", "", plat, []string{"256M", "512M", "1G", "2G", "4G", "8G", "16G"},
		ocRows(24, 30), bfsRows(19, 26), func(string) []variant { return vsMRMPI(plat) })
}

// Fig9 reproduces Figure 9: the same comparison on one Mira node (64 MB and
// 128 MB MR-MPI pages).
func Fig9() []*Figure {
	plat := platform.Mira()
	return fourPanels("fig9", "", plat, []string{"64M", "128M", "256M", "512M", "1G", "2G"},
		ocRows(22, 27), bfsRows(18, 22), func(string) []variant { return vsMRMPI(plat) })
}

// Fig10 reproduces Figure 10: weak scalability of WordCount, 512 MB/node on
// Comet and 256 MB/node on Mira, 2..64 nodes. MR-MPI's spill threshold is
// per rank (page size vs per-rank KV bytes), so these runs keep the
// platforms' true ranks-per-node: up to 1,536 in-process ranks on "64 Comet
// nodes".
func Fig10() []*Figure {
	nodes := nodeRows(2, 4, 8, 16, 32, 64)
	wc := func(id string, plat *platform.Platform, dist workloads.Distribution, distName, perNode string) *Figure {
		base := oneNode(plat)
		base.Kind, base.Dist, base.TotalBytes = driver.JobWordCount, dist, PaperSize(perNode)
		return panel(id, fmt.Sprintf("WC (%s, %s/node, %s)", distName, perNode, plat.Name), "number of nodes",
			cross(base, nodes, vsMRMPI(plat)))
	}
	comet, mira := platform.Comet(), platform.Mira()
	return []*Figure{
		wc("fig10a", comet, workloads.Uniform, "Uniform", "512M"),
		wc("fig10b", comet, workloads.Wikipedia, "Wikipedia", "512M"),
		wc("fig10c", mira, workloads.Uniform, "Uniform", "256M"),
		wc("fig10d", mira, workloads.Wikipedia, "Wikipedia", "256M"),
	}
}

// cpsSeries is the Figure 11/12 series set: both engines with and without
// KV compression, MR-MPI at the given page size.
func cpsSeries(page int) []variant {
	return []variant{
		mimirV("Mimir", false, false, false),
		mimirV("Mimir (cps)", false, false, true),
		mrmpiV("MR-MPI", page, false),
		mrmpiV("MR-MPI (cps)", page, true),
	}
}

// Fig11 reproduces Figure 11: the KV compression optimization on one Comet
// node — Mimir with and without cps vs MR-MPI (512 MB pages) with and
// without cps, on larger sweeps than Figure 8.
func Fig11() []*Figure {
	plat := platform.Comet()
	return fourPanels("fig11", "KV compression: ", plat, []string{"512M", "1G", "2G", "4G", "8G", "16G", "32G", "64G"},
		ocRows(25, 32), bfsRows(20, 26), func(string) []variant { return cpsSeries(plat.MaxPageSize) })
}

// Fig12 reproduces Figure 12: KV compression on one Mira node. Per the
// paper, MR-MPI uses its largest feasible page: 128 MB for WC and 64 MB for
// OC and BFS.
func Fig12() []*Figure {
	plat := platform.Mira()
	return fourPanels("fig12", "KV compression: ", plat, []string{"256M", "512M", "1G", "2G", "4G", "8G"},
		ocRows(24, 29), bfsRows(18, 23), func(kind string) []variant {
			if kind == driver.JobWordCount {
				return cpsSeries(plat.MaxPageSize)
			}
			return cpsSeries(plat.PageSize)
		})
}

// ladder returns the paper's optimization ladder for Figure 13/14. BFS does
// not support partial reduction (map-only), matching the paper.
func ladder(kind string) []variant {
	if kind == driver.JobBFS {
		return []variant{
			mimirV("Mimir", false, false, false),
			mimirV("Mimir (hint)", true, false, false),
			mimirV("Mimir (hint;cps)", true, false, true),
		}
	}
	return []variant{
		mimirV("Mimir", false, false, false),
		mimirV("Mimir (hint)", true, false, false),
		mimirV("Mimir (hint;pr)", true, true, false),
		mimirV("Mimir (hint;pr;cps)", true, true, true),
	}
}

// Fig13 reproduces Figure 13: the effect of stacking hint, pr, and cps on
// one Mira node.
func Fig13() []*Figure {
	return fourPanels("fig13", "Optimizations: ", platform.Mira(), []string{"256M", "512M", "1G", "2G", "4G", "8G"},
		ocRows(24, 29), bfsRows(18, 23), ladder)
}

// FigSpill extends the paper: WordCount ladders on one Mira node crossing
// its 16 GB memory, comparing Mimir's three out-of-core policies (the
// paper's fail-fast default plus the new spill subsystem) against MR-MPI's
// three out-of-core modes at its largest feasible page. Past the memory
// wall the error policies go OOM while the spill policies trade execution
// time for completion; Mimir's page-granular eviction keeps both its peak
// memory and its out-of-core traffic below MR-MPI's whole-page spills.
func FigSpill() []*Figure {
	plat := platform.Mira()
	mimirOOC := func(name string, ooc core.OutOfCore) variant {
		return variant{name, func(s *Spec) { s.Engine, s.OutOfCore = Mimir, ooc }}
	}
	mrmpiOOC := func(name string, mode mrmpi.Mode) variant {
		return variant{name, func(s *Spec) { s.Engine, s.MRMPIPage, s.MRMPIMode = MRMPI, plat.MaxPageSize, mode }}
	}
	series := []variant{
		mimirOOC("Mimir (error)", core.Error),
		mimirOOC("Mimir (spill)", core.SpillWhenNeeded),
		mimirOOC("Mimir (spill-always)", core.SpillAlways),
		mrmpiOOC("MR-MPI (error)", mrmpi.ErrorIfExceeds),
		mrmpiOOC("MR-MPI (spill)", mrmpi.SpillWhenNeeded), // the library default
		mrmpiOOC("MR-MPI (spill-always)", mrmpi.SpillAlways),
	}
	wcLabels := []string{"1G", "2G", "4G", "8G", "16G", "32G"}
	return []*Figure{
		panel("figspilla", "Out-of-core: WC (Uniform), one Mira node", "dataset size",
			cross(oneNode(plat), wcRows(workloads.Uniform, wcLabels...), series)),
		panel("figspillb", "Out-of-core: WC (Wikipedia), one Mira node", "dataset size",
			cross(oneNode(plat), wcRows(workloads.Wikipedia, wcLabels...), series)),
	}
}

// Fig14 reproduces Figure 14: weak scalability of the optimization ladder on
// Mira. The paper runs to 1,024 nodes; this in-process reproduction sweeps
// 2..128 nodes (the paper's WC (Wikipedia) panel also stops at 128), with 4
// ranks per node for tractability — node-level memory ratios, which decide
// where each ladder rung runs out of memory, are preserved.
func Fig14() []*Figure {
	nodes := nodeRows(2, 4, 8, 16, 32, 64, 128)
	weak := func(id, title string, perNode driver.JobConfig) *Figure {
		perNode.Seed = Seed
		base := Spec{Plat: platform.Mira(), RanksPerNode: 4, JobConfig: perNode}
		return panel(id, "Ladder weak scaling: "+title, "number of nodes",
			cross(base, nodes, ladder(perNode.Kind)))
	}
	return []*Figure{
		weak("fig14a", "WC (Uniform, 2G/node, Mira)",
			driver.JobConfig{Kind: driver.JobWordCount, TotalBytes: PaperSize("2G")}),
		weak("fig14b", "WC (Wikipedia, 2G/node, Mira)",
			driver.JobConfig{Kind: driver.JobWordCount, Dist: workloads.Wikipedia, TotalBytes: PaperSize("2G")}),
		weak("fig14c", "OC (2^27 points/node, Mira)",
			driver.JobConfig{Kind: driver.JobOctree, Points: 1 << 17}),
		weak("fig14d", "BFS (2^22 vertices/node, Mira)",
			driver.JobConfig{Kind: driver.JobBFS, Scale: 12}),
	}
}
