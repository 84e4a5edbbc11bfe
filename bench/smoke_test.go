package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test holds the
// program to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []namedUnit             `json:"end_to_end"`
	PerLayer  []namedUnit             `json:"per_layer"`
}

type namedUnit struct{ Name, Unit string }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at quick size through both passes and checks
// that the program and BENCHMARK.json name the same workloads and metrics
// with the same units, that no job fails, and that each workload exercises
// the layers it was chosen for and bypasses the ones it was chosen to bypass.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(file.Workloads), len(workloadTable))
	}

	check := func(t *testing.T, res result, want []namedUnit) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("program reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
			case !ok:
				t.Errorf("metric %s is in BENCHMARK.json but not reported", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s: unit %q reported, %q in BENCHMARK.json", m.Name, got.Unit, m.Unit)
			}
		}
	}

	for i, w := range workloadTable {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, file.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(options{workload: w.name, seed: 7, seconds: 0.1, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, file.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			res, err = run(options{workload: w.name, seed: 7, seconds: 0.2, quick: true, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, file.PerLayer)
			value := func(name string) float64 { return res.Metrics[name].Value }
			convertRuns := w.name == "wc_uniform" || w.name == "wc_spill" || w.name == "mimird_small_jobs"
			if !convertRuns && value("core.convert_s") != 0 {
				t.Errorf("core.convert_s = %v on a workload that never converts", value("core.convert_s"))
			}
			if w.name == "wc_uniform" && value("core.convert_s") <= 0 {
				t.Errorf("core.convert_s = %v on the convert workload", value("core.convert_s"))
			}
			if spills := value("spill.evictions") > 0; spills != (w.name == "wc_spill") {
				t.Errorf("spill.evictions = %v", value("spill.evictions"))
			}
			if value("transport.exchange_calls") <= 0 {
				t.Errorf("transport.exchange_calls = %v: the tracing decorator saw nothing", value("transport.exchange_calls"))
			}
		})
	}
}
