package mimir_test

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestSimulatedBaselinesIgnoreGOMAXPROCS holds the committed simulated
// sweeps (BENCH_mrc / BENCH_skew / BENCH_workers) to their "byte-identical
// on any host" note: each is re-run in-process under GOMAXPROCS 1, 2 and 8
// and must serialize to the same bytes every time. A harness path that lets
// the engines' Workers default (GOMAXPROCS) through — as the MRC matrix once
// did — fails here on any host, not only on the one whose core count differs
// from the baseline's author's.
func TestSimulatedBaselinesIgnoreGOMAXPROCS(t *testing.T) {
	sweeps := []struct {
		name string
		run  func() any
	}{
		{"mrc", func() any { return benchMRCRun() }},
		{"skew", func() any { return benchSkewRun() }},
		{"workers", func() any { return benchWorkersRun(t) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sw := range sweeps {
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := json.Marshal(sw.run())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Errorf("%s sweep differs between GOMAXPROCS 1 and %d:\n got: %s\nwant: %s", sw.name, procs, got, want)
			}
		}
	}
}
