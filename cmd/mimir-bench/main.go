// Command mimir-bench regenerates the tables behind every figure of the
// paper's evaluation (Section IV), plus this implementation's extensions
// (the out-of-core spill ladder, "figspill").
//
// Usage:
//
//	mimir-bench            # run every figure (takes a while)
//	mimir-bench -fig 8     # run only Figure 8
//	mimir-bench -fig spill # the out-of-core ladder: spill policies vs MR-MPI modes
//	mimir-bench -list      # list available figures
//
// A single run with the per-rank distribution view (machine-readable, one
// sample per rank for each phase time and traffic counter):
//
//	mimir-bench -single wcu -nodes 4 -bytes 1048576 -perrank -
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mimir/internal/driver"
	"mimir/internal/expt"
	"mimir/internal/metrics"
	"mimir/internal/platform"
	"mimir/internal/workloads"
)

func main() {
	fig := flag.String("fig", "", "figure to run (e.g. 1, 8, fig10); empty = all")
	list := flag.Bool("list", false, "list available figures")
	asJSON := flag.Bool("json", false, "emit JSON instead of tables")
	single := flag.String("single", "", "run one benchmark instead of figures: wcu, wcw, oc, or bfs")
	nodes := flag.Int("nodes", 4, "simulated nodes for -single")
	rpn := flag.Int("rpn", 4, "ranks per node for -single")
	sizeBytes := flag.Int64("bytes", 1<<20, "dataset bytes (wcu/wcw), points (oc), or scale (bfs) for -single")
	engineArg := flag.String("engine", "mimir", "engine for -single: mimir or mrmpi")
	perrank := flag.String("perrank", "", "with -single: write the per-rank distribution JSON to this file (- = stdout)")
	flag.Parse()

	if *single != "" {
		runSingle(*single, *nodes, *rpn, *sizeBytes, *engineArg, *perrank)
		return
	}

	if *list {
		for _, e := range expt.All {
			fmt.Printf("%-8s %s\n", e.ID, e.Note)
		}
		return
	}

	// -fig accepts a figure ("8", "mrc") or a single panel of one ("8c").
	want := strings.TrimPrefix(strings.ToLower(*fig), "fig")
	ran := 0
	for _, e := range expt.All {
		id := strings.TrimPrefix(e.ID, "fig")
		wantPanel, isPanel := strings.CutPrefix(want, id)
		isPanel = isPanel && len(wantPanel) == 1 && strings.Contains("abcd", wantPanel)
		if want != "" && want != id && !isPanel {
			continue
		}
		start := time.Now()
		for _, f := range e.Gen() {
			if isPanel && !strings.HasSuffix(f.ID, wantPanel) {
				continue
			}
			if *asJSON {
				if err := f.WriteJSON(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				f.Render(os.Stdout)
			}
			ran++
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *fig)
		os.Exit(2)
	}
}

// runSingle executes one spec and reports its result plus, optionally, the
// per-rank distribution summary as JSON (satisfying harnesses that want
// machine-readable load-imbalance data without re-running a whole figure).
func runSingle(bench string, nodes, rpn int, size int64, engineArg, perrank string) {
	spec := expt.Spec{
		Plat:         platform.Comet(),
		Nodes:        nodes,
		RanksPerNode: rpn,
		JobConfig:    driver.JobConfig{Hint: true, PR: true, Seed: expt.Seed},
	}
	switch engineArg {
	case "mimir":
		spec.Engine = expt.Mimir
	case "mrmpi":
		spec.Engine = expt.MRMPI
		spec.Hint, spec.PR = false, false
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q (want mimir or mrmpi)\n", engineArg)
		os.Exit(2)
	}
	switch bench {
	case "wcu":
		spec.Kind, spec.TotalBytes = driver.JobWordCount, size
	case "wcw":
		spec.Kind, spec.Dist, spec.TotalBytes = driver.JobWordCount, workloads.Wikipedia, size
	case "oc":
		spec.Kind, spec.Points = driver.JobOctree, size
	case "bfs":
		spec.Kind, spec.Scale = driver.JobBFS, int(size)
	default:
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (want wcu, wcw, oc, or bfs)\n", bench)
		os.Exit(2)
	}
	if perrank != "" {
		spec.PerRank = metrics.NewSummary()
	}
	res := expt.Run(spec)
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, res.Err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "time=%.4gs peak/proc=%d spilled=%d\n", res.Time, res.PeakPerProc, res.SpilledBytes)
	if spec.PerRank == nil {
		return
	}
	out := os.Stdout
	if perrank != "-" {
		f, err := os.Create(perrank)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := spec.PerRank.WriteJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
