package mimir_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// holdBaseline is the tail every committed simulated sweep shares: got must
// serialize to exactly the bytes of the committed file, or — with
// MIMIR_BENCH_OUT set — is written there instead, regenerating the baseline.
func holdBaseline(t *testing.T, file string, got any) {
	t.Helper()
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if out := os.Getenv("MIMIR_BENCH_OUT"); out != "" {
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read baseline (regenerate with MIMIR_BENCH_OUT): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("sweep drifted from committed %s\n got: %s\nwant: %s", file, buf, want)
	}
}

// TestSimulatedBaselinesIgnoreGOMAXPROCS holds the committed simulated
// sweeps (BENCH_mrc / BENCH_skew) to their "byte-identical on any host"
// note: each is re-run in-process under GOMAXPROCS 1, 2 and 8 and must
// serialize to the same bytes every time. A harness path that lets the
// host's core count leak into a simulated result fails here on any host,
// not only on the one whose core count differs from the baseline's author's.
func TestSimulatedBaselinesIgnoreGOMAXPROCS(t *testing.T) {
	sweeps := []struct {
		name string
		run  func() any
	}{
		{"mrc", func() any { return benchMRCRun() }},
		{"skew", func() any { return benchSkewRun() }},
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
