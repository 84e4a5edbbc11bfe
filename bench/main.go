// Command mimir-perfbench is the repository's wall-clock benchmark: eight
// workloads over the real engine, the loopback TCP transport and the job
// daemon, measured from outside through the packages' public functions.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets up, runs jobs back to back (closed loop) for S
// seconds, checks every output, and reports the end-to-end metrics. With
// --trace 1 it runs the same jobs alternately bare and behind a tracing
// transport decorator and reports the per-layer ledger plus the unit-cost
// probes of the layers the workload exercises. The last line of standard
// output is one JSON object. See README.md for what each workload and metric
// is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed shape of every run: 2 ranks of 1 worker each, on 2 Ps.
const (
	benchRanks = 2
	benchProcs = 2
)

// Set-up repeats at least minSetupReps times and until it has taken
// setupShare of --seconds in all (a 5 ms set-up needs more samples than a
// 250 ms one for a steady median), at most maxSetupReps times.
const (
	minSetupReps = 5
	maxSetupReps = 40
	setupShare   = 1.0 / 20
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	spans    string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndUnits names the end-to-end metrics (BENCHMARK.json's end_to_end).
var endToEndUnits = map[string]string{
	"job_s":            "s",
	"allocs_per_job":   "count",
	"alloc_mb_per_job": "MB",
	"peak_arena_bytes": "bytes",
	"peak_heap_mb":     "MB",
	"setup_s":          "s",
}

func main() {
	var o options
	trace := 0
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 8, "measuring time")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.BoolVar(&o.quick, "quick", false, "shrink every workload (smoke test)")
	flag.StringVar(&o.spans, "spans", "", "with --trace 1, append the spans to this file as JSON lines")
	flag.Parse()
	o.trace = trace != 0

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		names := make([]string, len(workloadTable))
		for i, w := range workloadTable {
			names[i] = w.name
		}
		return result{}, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, names)
	}
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(benchProcs)
	fmt.Fprintf(os.Stderr, "bench: host: %d cores, GOMAXPROCS %d, %d ranks x 1 worker, %s %s/%s\n",
		runtime.NumCPU(), benchProcs, benchRanks, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	sz := fullSizes
	if o.quick {
		sz = quickSizes
	}
	if o.trace {
		return ledger(w, o, sz)
	}
	return measure(w, o, sz)
}

// printResult writes every metric by name with its unit, then the JSON line.
func printResult(out *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res) // a map of floats cannot fail to marshal
	fmt.Fprintf(out, "%s\n", line)
}

// tally counts jobs and failures across a run.
type tally struct {
	attempted, failed int
	broken            bool // the watchdog fired: the rig cannot run another job
}

// closeRig closes g unless the watchdog fired: a hung job still holds the
// rig's ranks, and closing under them could hang the benchmark too.
func (t *tally) closeRig(g rig) {
	if !t.broken {
		g.close()
	}
}

// runJob runs one guarded job and accounts for it.
func (t *tally) runJob(g rig) (jobResult, bool) {
	res, err := guarded(g)
	t.attempted++
	if err != nil {
		t.failed++
		t.broken = t.broken || errors.Is(err, errWatchdog)
		fmt.Fprintln(os.Stderr, "bench: job failed:", err)
		return res, false
	}
	return res, true
}

// measure is the untraced pass: the end-to-end metrics.
func measure(w workload, o options, sz sizes) (result, error) {
	// Set up several times and report the median, so set-up time is as
	// steady a metric as the rest; the last rig runs the jobs.
	var g rig
	var setups []float64
	for begin := time.Now(); len(setups) < minSetupReps ||
		(len(setups) < maxSetupReps && time.Since(begin).Seconds() < o.seconds*setupShare); {
		if g != nil {
			g.close()
		}
		t0 := time.Now()
		var err error
		if g, err = w.build(o.seed, sz, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var t tally
	defer func() { t.closeRig(g) }()
	batch := w.batch(sz)
	for i := 0; i < batch && !t.broken; i++ { // warm-up: pools, lazy tables, TCP windows
		t.runJob(g)
	}

	heap := startHeapSampler()
	defer heap.stop()

	var walls, allocs, allocMB, arenaPeak, heapMB []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(deadline) && !t.broken {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		heap.take()
		ok := true
		for i := 0; i < batch && !t.broken; i++ {
			res, good := t.runJob(g)
			if good {
				walls = append(walls, res.wall)
				arenaPeak = append(arenaPeak, float64(res.arenaPeak))
			}
			ok = ok && good
		}
		runtime.ReadMemStats(&m1)
		if ok {
			heapMB = append(heapMB, heap.take()/1e6)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(batch))
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(batch)/1e6)
		}
	}
	res := result{
		Correct: t.failed == 0 && len(walls) > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{},
	}
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, endToEndUnits[name]} }
	set("job_s", median(walls))
	set("allocs_per_job", median(allocs))
	set("alloc_mb_per_job", median(allocMB))
	set("peak_arena_bytes", median(arenaPeak))
	set("peak_heap_mb", median(heapMB))
	set("setup_s", median(setups))
	fmt.Fprintf(os.Stderr, "bench: %s: %d timed jobs, job_s quartiles %.4f / %.4f / %.4f\n",
		w.name, len(walls), quantile(walls, 0.25), median(walls), quantile(walls, 0.75))
	return res, nil
}

// heapSampler polls the runtime's own accounting for the bytes in heap
// objects (live, or dead and not yet swept — the engine's arena pages are
// heap objects too) and keeps the maximum since the last reset.
type heapSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts a new interval.
func (h *heapSampler) take() float64 { return float64(h.peak.Swap(0)) }

func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}
