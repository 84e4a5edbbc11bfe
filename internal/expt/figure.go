package expt

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mimir/internal/platform"
)

// Point is one measured cell of a figure: one series at one x value.
type Point struct {
	Series string
	X      string
	// Time in simulated seconds (NaN if the run failed).
	Time float64
	// PeakGB is the per-process peak memory in paper-scale GB.
	PeakGB float64
	// Note marks special outcomes: "OOM" (failed), "spill" (out of core —
	// the paper omits these points), or "".
	Note string
}

// OK reports whether the point is a valid in-memory measurement.
func (p Point) OK() bool { return p.Note == "" && !math.IsNaN(p.Time) }

// Figure is one reproduced table/figure.
type Figure struct {
	ID     string // "fig1" .. "fig14"
	Title  string
	XLabel string
	Points []Point
	// NoTime suppresses the execution-time section (for size-only figures
	// like Fig 7); MemLabel overrides the memory section's heading.
	NoTime   bool
	MemLabel string
}

// Add records one measured point, deriving Note from the result.
func (f *Figure) Add(series, x string, r Result) {
	pt := Point{Series: series, X: x, Time: r.Time, PeakGB: BytesToPaperGB(r.PeakPerProc)}
	switch {
	case r.Failed():
		pt.Note = "OOM"
		pt.Time = math.NaN()
	case r.SpilledBytes > 0:
		pt.Note = "spill"
	}
	f.Points = append(f.Points, pt)
}

// AddRaw records a point that is not a Run result (e.g. Fig 7's KV sizes).
func (f *Figure) AddRaw(p Point) { f.Points = append(f.Points, p) }

// Get returns the point for (series, x).
func (f *Figure) Get(series, x string) (Point, bool) {
	for _, p := range f.Points {
		if p.Series == series && p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

// SeriesNames returns the distinct series in first-appearance order.
func (f *Figure) SeriesNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range f.Points {
		if !seen[p.Series] {
			seen[p.Series] = true
			names = append(names, p.Series)
		}
	}
	return names
}

// XValues returns the distinct x values in first-appearance order.
func (f *Figure) XValues() []string {
	var xs []string
	seen := map[string]bool{}
	for _, p := range f.Points {
		if !seen[p.X] {
			seen[p.X] = true
			xs = append(xs, p.X)
		}
	}
	return xs
}

// Render prints the figure as two aligned tables (execution time and peak
// memory), one row per x value and one column per series — the same
// rows/series the paper plots.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(f.ID), f.Title)
	series := f.SeriesNames()
	xs := f.XValues()

	cell := func(p Point, ok bool, mem bool) string {
		if !ok {
			return "-"
		}
		if p.Note == "OOM" {
			return "OOM"
		}
		if p.Note == "spill" && !mem {
			return fmt.Sprintf("(%s)", fmtSeconds(p.Time))
		}
		if mem {
			return fmt.Sprintf("%.2f", p.PeakGB)
		}
		return fmtSeconds(p.Time)
	}

	hasMem := false
	for _, p := range f.Points {
		if p.PeakGB > 0 {
			hasMem = true
			break
		}
	}
	memLabel := f.MemLabel
	if memLabel == "" {
		memLabel = "peak memory per process (GB)"
	}
	var sections []struct {
		name string
		mem  bool
	}
	if !f.NoTime {
		sections = append(sections, struct {
			name string
			mem  bool
		}{"execution time (s)", false})
	}
	if hasMem {
		sections = append(sections, struct {
			name string
			mem  bool
		}{memLabel, true})
	}
	for _, sec := range sections {
		fmt.Fprintf(w, "-- %s --\n", sec.name)
		fmt.Fprintf(w, "%-14s", f.XLabel)
		for _, s := range series {
			fmt.Fprintf(w, " %18s", s)
		}
		fmt.Fprintln(w)
		for _, x := range xs {
			fmt.Fprintf(w, "%-14s", x)
			for _, s := range series {
				p, ok := f.Get(s, x)
				fmt.Fprintf(w, " %18s", cell(p, ok, sec.mem))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

func fmtSeconds(t float64) string {
	switch {
	case math.IsNaN(t):
		return "fail"
	case t >= 100:
		return fmt.Sprintf("%.0f", t)
	case t >= 1:
		return fmt.Sprintf("%.1f", t)
	default:
		return fmt.Sprintf("%.3f", t)
	}
}

// BytesToPaperGB converts scaled bytes to paper-scale GB: scaled bytes are
// 1024x smaller, so 1 MiB scaled == 1 "GB" in paper terms.
func BytesToPaperGB(scaled int64) float64 {
	return float64(scaled) * platform.Scale / (1 << 30)
}

// SizeLabel renders a scaled byte count with its paper-scale name
// (e.g. 1 MiB scaled -> "1G").
func SizeLabel(scaled int64) string {
	paper := scaled * platform.Scale
	switch {
	case paper >= 1<<30 && paper%(1<<30) == 0:
		return fmt.Sprintf("%dG", paper>>30)
	case paper >= 1<<20 && paper%(1<<20) == 0:
		return fmt.Sprintf("%dM", paper>>20)
	default:
		return fmt.Sprintf("%dK", paper>>10)
	}
}

// PaperSize parses a paper-scale label like "256M" or "4G" into scaled
// bytes.
func PaperSize(label string) int64 {
	var n int64
	var unit string
	fmt.Sscanf(label, "%d%s", &n, &unit)
	var paper int64
	switch strings.ToUpper(unit) {
	case "G":
		paper = n << 30
	case "M":
		paper = n << 20
	case "K":
		paper = n << 10
	default:
		paper = n
	}
	return paper / platform.Scale
}

// Pow2Label formats 2^n as the paper writes it.
func Pow2Label(n int) string { return fmt.Sprintf("2^%d", n) }
