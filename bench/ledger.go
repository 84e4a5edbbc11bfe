package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mimir/internal/metrics"
)

// perLayerUnits names the per-layer metrics a traced run reports (the
// probes add theirs in probes.go). Every run reports every name; a metric a
// workload's layers never touch reads 0.
var perLayerUnits = map[string]string{
	"core.map_s":                "s",
	"core.aggregate_s":          "s",
	"core.convert_s":            "s",
	"core.reduce_s":             "s",
	"core.shuffled_bytes":       "bytes",
	"core.shuffle_imbalance":    "ratio",
	"core.ns_per_kv":            "ns/kv",
	"core.mb_s_core":            "MB/s",
	"core.serial_job_s":         "s",
	"core.speedup_2r":           "ratio",
	"transport.exchange_calls":  "count",
	"transport.exchange_bytes":  "bytes",
	"transport.exchange_s":      "s",
	"transport.exchange_xfer_s": "s",
	"transport.p2p_msgs":        "count",
	"transport.p2p_bytes":       "bytes",
	"mpi.peer_wait_s":           "s",
	"spill.evictions":           "count",
	"spill.restores":            "count",
	"spill.spilled_bytes":       "bytes",
	"spill.prefetch_hits":       "count",
	"spill.write_amp":           "ratio",
	"workloads.input_s":         "s",
	"driver.outside_engine_s":   "s",
	"jobsvc.queue_wait_ms_p50":  "ms",
	"jobsvc.run_ms_p50":         "ms",
	"jobsvc.overhead_ms_p50":    "ms",
	"jobsvc.submit_done_ms_p95": "ms",
	"jobsvc.submit_done_ms_p99": "ms",
	"trace.untraced_job_s":      "s",
	"trace.traced_job_s":        "s",
	"trace.overhead_frac":       "ratio",
	"budget.unexplained_frac":   "ratio",
}

// Shares of --seconds a traced run gives each part; set-up and the probes
// (probeShare each, see probes.go) take the rest.
const (
	alternateShare = 0.45
	serialShare    = 0.08
	minPassJobs    = 2
)

// series reads one named per-rank series of a job's summary.
func series(sum *metrics.Summary, name string) metrics.Series {
	if sum != nil {
		if s := sum.Get(name); s != nil && s.Count > 0 {
			return *s
		}
	}
	return metrics.Series{}
}

// alternate runs jobs closed loop for about dur (at least minPassJobs a
// side), one on plain then one on traced, turn by turn, so the host's drift
// falls on both sides alike and their medians can be compared. Each traced
// job is bracketed by a job span; reps number from 1.
func alternate(plain, traced rig, t *tally, dur time.Duration, tr *tracer) (untraced, tracedJobs []jobResult) {
	t.runJob(plain) // warm-up: pools, lazy tables, TCP windows
	if !t.broken {
		t.runJob(traced)
	}
	deadline := time.Now().Add(dur)
	for rep := 1; !t.broken && (rep <= minPassJobs || time.Now().Before(deadline)); rep++ {
		runtime.GC() // as the untraced run does before every job
		if res, ok := t.runJob(plain); ok {
			untraced = append(untraced, res)
		}
		if t.broken {
			break
		}
		runtime.GC()
		id, start := tr.beginJob(rep)
		res, ok := t.runJob(traced)
		tr.endJob(id, start)
		if ok {
			res.rep = rep
			tracedJobs = append(tracedJobs, res)
		}
	}
	return untraced, tracedJobs
}

func walls(jobs []jobResult) []float64 {
	w := make([]float64, len(jobs))
	for i, j := range jobs {
		w[i] = j.wall
	}
	return w
}

// ledger is the traced pass: the workload's jobs alternately bare and behind
// the tracing transport, wc_uniform once more at a single rank, and the
// unit-cost probes of the layers this workload exercises.
func ledger(w workload, o options, sz sizes) (result, error) {
	share := func(f float64) time.Duration { return time.Duration(o.seconds * f * float64(time.Second)) }
	var t tally

	plain, err := w.build(o.seed, sz, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer(w.name)
	g, err := w.build(o.seed, sz, tr)
	if err != nil {
		plain.close()
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	untraced, traced := alternate(plain, g, &t, share(alternateShare), tr)
	if t.broken { // a hung job: report the failure, touch no rig again
		return result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}, nil
	}
	plain.close()
	inputBytes, kvs := g.volume()
	inputS := g.inputSeconds()
	var bare float64
	if d, ok := g.(*daemonRig); ok {
		bare = d.bareDriverSeconds(20)
	}
	g.close()

	// The single-threaded baseline: wc_uniform alone, at one rank.
	var single []jobResult
	if w.name == "wc_uniform" {
		serial, err := newWCRig(wcUniform(o.seed, sz), 1, nil)
		if err != nil {
			return result{}, fmt.Errorf("serial set-up: %w", err)
		}
		t.runJob(serial)
		deadline := time.Now().Add(share(serialShare))
		for rep := 1; !t.broken && (rep <= minPassJobs || time.Now().Before(deadline)); rep++ {
			if res, ok := t.runJob(serial); ok {
				single = append(single, res)
			}
		}
		t.closeRig(serial)
	}

	res := result{
		Correct:   t.failed == 0 && len(traced) > 0 && len(untraced) > 0,
		Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{},
	}
	for name, unit := range perLayerUnits {
		res.Metrics[name] = metricValue{0, unit}
	}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metricValue{v, perLayerUnits[name]}
	}

	// One value per traced job and quantity; the ledger reports medians.
	// Values are the slowest rank's unless a count is summed over ranks.
	col := map[string][]float64{}
	add := func(name string, v float64) { col[name] = append(col[name], v) }
	byRep := tr.byRep()
	for _, j := range traced {
		phases := 0.0
		for name, key := range map[string]string{"core.map_s": "map-sec", "core.aggregate_s": "aggregate-sec",
			"core.convert_s": "convert-sec", "core.reduce_s": "reduce-sec"} {
			if !j.simulated {
				v := series(j.sum, key).Max
				add(name, v)
				phases += v
			}
		}
		shuffled := series(j.sum, "shuffled-bytes")
		add("core.shuffled_bytes", shuffled.Sum)
		add("core.shuffle_imbalance", shuffled.Imbalance())
		spilled := series(j.sum, "spilled-bytes").Sum
		add("spill.spilled_bytes", spilled)
		add("spill.evictions", series(j.sum, "spill-evictions").Sum)
		add("spill.restores", series(j.sum, "spill-restores").Sum)
		add("spill.prefetch_hits", series(j.sum, "spill-prefetch-hits").Sum)
		if shuffled.Sum > 0 {
			add("spill.write_amp", spilled/shuffled.Sum)
		}
		if j.driver {
			add("driver.outside_engine_s", math.Max(0, j.wall-phases))
		}
		if j.run > 0 {
			add("jobsvc.queue_wait_ms_p50", j.queueWait*1e3)
			add("jobsvc.run_ms_p50", j.run*1e3)
		}
		l := ledgerOf(byRep[j.rep])
		add("transport.exchange_calls", float64(l.calls))
		add("transport.exchange_bytes", float64(l.bytes))
		add("transport.exchange_s", l.busy)
		add("transport.exchange_xfer_s", l.xfer)
		add("transport.p2p_msgs", float64(l.p2pMsgs))
		add("transport.p2p_bytes", float64(l.p2pBytes))
		add("mpi.peer_wait_s", l.peerWait)
	}
	for name, vals := range col {
		set(name, median(vals))
	}

	jobS := median(walls(untraced))
	tracedS := median(walls(traced))
	set("trace.untraced_job_s", jobS)
	set("trace.traced_job_s", tracedS)
	set("trace.overhead_frac", tracedS/jobS-1)
	if len(single) > 0 {
		serialS := median(walls(single))
		set("core.serial_job_s", serialS)
		set("core.speedup_2r", serialS/jobS)
	}
	set("core.mb_s_core", float64(inputBytes)/1e6/jobS/float64(benchRanks))
	if kvs > 0 {
		set("core.ns_per_kv", jobS*1e9/float64(kvs))
	}
	set("workloads.input_s", inputS)
	if bare > 0 {
		tw := walls(traced)
		set("jobsvc.overhead_ms_p50", (median(tw)-bare)*1e3)
		set("jobsvc.submit_done_ms_p95", quantile(tw, 0.95)*1e3)
		set("jobsvc.submit_done_ms_p99", quantile(tw, 0.99)*1e3)
	}

	probes := runProbes(w.name, share(probeShare), o.seed, sz.probeKVs)
	for name, v := range probes {
		if math.IsNaN(v) || math.IsInf(v, 0) { // a probe that failed
			v = 0
		}
		res.Metrics[name] = metricValue{v, probeUnits[name]}
	}

	// The time budget: unit costs times the traced volumes of one rank,
	// against the measured job. What is left over is unexplained.
	perRankKVs := float64(kvs) / benchRanks
	recvMB := res.Metrics["core.shuffled_bytes"].Value / benchRanks / 1e6
	var explained float64
	switch w.name {
	case "wc_uniform":
		explained = inputS + res.Metrics["transport.exchange_xfer_s"].Value +
			perRankKVs*1e-9*(probes["workloads.wcmap_ns_per_kv"]+probes["partition.hash_dest_ns_per_kv"]+
				probes["kvbuf.encode_hint_ns_per_kv"]+probes["kvbuf.convert_ns_per_kv"]) +
			recvMB/probes["kvbuf.append_chunk_mb_s"]
	case "shuffle_tcp":
		explained = inputS + res.Metrics["transport.exchange_xfer_s"].Value +
			perRankKVs*1e-9*(probes["partition.hash_dest_ns_per_kv"]+probes["kvbuf.encode_hint_ns_per_kv"]+
				probes["kvbuf.kvc_scan_ns_per_kv"]) +
			recvMB/probes["kvbuf.append_chunk_mb_s"]
	}
	if explained > 0 {
		set("budget.unexplained_frac", math.Abs(jobS-explained)/jobS)
	}

	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d untraced, %d traced, %d serial jobs; %d spans\n",
		w.name, len(untraced), len(traced), len(single), len(tr.spans))
	return res, nil
}
