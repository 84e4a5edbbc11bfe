package mimir_test

import (
	"bytes"
	"fmt"
	"testing"

	"mimir/internal/driver"
	"mimir/internal/mem"
)

// TestScribbleBattery: the engine frees a container's pages as its reader
// passes them (stage output into RunStage's sink, partial-reduction and
// combiner buckets into the output and the send buffer), so a sink, reducer
// or combiner that keeps a key or value slice past its callback reads freed
// memory. With mem.DebugPool on, every released buffer is scribbled, so such
// a slice reads garbage at once, and a buffer released twice panics — the
// TCP cell puts the transport's frame buffers under the same check.
// Every job kind, with and without its combiner, in memory and under
// SpillWhenNeeded, on Local and TCP, must produce
// exactly the bytes of its run with scribbling off.
func TestScribbleBattery(t *testing.T) {
	jobs := append(mrcBatteryJobs(), driver.JobConfig{Kind: driver.JobOctree, Points: 1 << 12, Hint: true, PR: true})
	modes := []string{"local", "tcp"}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, base := range jobs {
		for _, cps := range []bool{false, true} {
			for _, spill := range []bool{false, true} {
				cfg := base
				cfg.Seed = 7
				cfg.PageSize = 1 << 10
				cfg.CommBuf = 8 << 10
				cfg.CPS = cps
				if spill {
					cfg = mrcSpillCfg(cfg)
				}
				name := fmt.Sprintf("%s/cps=%v/spill=%v", base.Kind, cps, spill)
				t.Run(name, func(t *testing.T) {
					want := runMRCJob(t, cfg, "local", nil)
					if len(want) == 0 {
						t.Fatal("empty reference output")
					}
					mem.DebugPool(true)
					defer mem.DebugPool(false)
					for _, mode := range modes {
						if got := runMRCJob(t, cfg, mode, nil); !bytes.Equal(got, want) {
							t.Errorf("%s: output with release scribbling differs (%d vs %d bytes)",
								mode, len(got), len(want))
						}
					}
				})
			}
		}
	}
}
