package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
)

// Property: the overlapped aggregate (default) and the serial aggregate
// (SerialAggregate) produce the identical KV multiset across rank counts,
// comm-buffer sizes, and the hint/pr/cps optimization ladder. This is the
// guarantee that lets the nonblocking exchange be on by default.
func TestOverlapSerialEquivalenceProperty(t *testing.T) {
	ladder := []struct {
		name string
		mod  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"hint", func(cfg *Config) {
			cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
		}},
		{"pr", func(cfg *Config) { cfg.PartialReduce = wcCombine }},
		{"cps", func(cfg *Config) { cfg.Combiner = wcCombine }},
		{"full", func(cfg *Config) {
			cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
			cfg.PartialReduce = wcCombine
			cfg.Combiner = wcCombine
		}},
	}
	f := func(seed uint16) bool {
		nLines := int(seed%12) + 4
		lines := make([]string, nLines)
		for i := range lines {
			var sb strings.Builder
			for j := 0; j <= int(seed%20)+3; j++ {
				fmt.Fprintf(&sb, "word%d ", (int(seed)+7*i+j)%13)
			}
			lines[i] = sb.String()
		}
		want := refWordCount(lines)
		for _, p := range []int{1, 4, 24} {
			for _, commBuf := range []int{4 * MinPartition, DefaultCommBuf} {
				for _, step := range ladder {
					for _, serial := range []bool{false, true} {
						got := runWC(t, p, lines, func(cfg *Config) {
							cfg.CommBuf = commBuf
							cfg.SerialAggregate = serial
							step.mod(cfg)
						})
						if len(got) != len(want) {
							t.Logf("p=%d commbuf=%d %s serial=%v: %d unique words, want %d",
								p, commBuf, step.name, serial, len(got), len(want))
							return false
						}
						for w, n := range want {
							if got[w] != n {
								t.Logf("p=%d commbuf=%d %s serial=%v: count[%q]=%d, want %d",
									p, commBuf, step.name, serial, w, got[w], n)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

// timedWC runs a multi-round WordCount with realistic compute and network
// costs and returns the simulated job time plus the summed overlap stats.
func timedWC(t *testing.T, serial bool) (simT float64, overlapRounds int, savedSec float64) {
	t.Helper()
	lines := make([]string, 96)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma delta word%d epsilon zeta eta theta filler%d", i%11, i%5)
	}
	// A bandwidth-dominated network (small alpha, low beta): the overlap
	// win scales with the bytes it hides, while the extra rounds of the
	// smaller double-buffered partitions cost only latency.
	const p = 4
	w := mpi.NewWorld(mpi.Config{Size: p, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 5e6}})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{
			Arena:           arena,
			CommBuf:         12 * MinPartition,
			SerialAggregate: serial,
			Costs:           Costs{MapPerByte: 1e-7, KVPerByte: 3e-7, PerRecord: 1e-6, ReducePerByte: 1e-7},
		})
		var mine []Record
		for i, l := range lines {
			if i%p == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out, err := job.Run(SliceInput(mine), wcMap, wcReduce)
		if err != nil {
			return err
		}
		defer out.Free()
		mu.Lock()
		overlapRounds += out.Stats.OverlapRounds
		savedSec += out.Stats.OverlapSavedSec
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxTime(), overlapRounds, savedSec
}

// TestOverlapSavesSimTime pins the tentpole's point: with compute and
// network costs charged, the overlapped aggregate finishes the same job in
// less simulated time than the serial aggregate, and the stats say why.
func TestOverlapSavesSimTime(t *testing.T) {
	serialT, serialRounds, serialSaved := timedWC(t, true)
	if serialRounds != 0 || serialSaved != 0 {
		t.Errorf("serial run reported overlap stats: rounds=%d saved=%v", serialRounds, serialSaved)
	}
	overlapT, overlapRounds, overlapSaved := timedWC(t, false)
	if overlapRounds == 0 {
		t.Error("overlapped run hid no rounds (OverlapRounds = 0)")
	}
	if overlapSaved <= 0 {
		t.Error("overlapped run saved no simulated time (OverlapSavedSec = 0)")
	}
	if overlapT >= serialT {
		t.Errorf("overlapped job time %.6f s not below serial %.6f s", overlapT, serialT)
	}
	t.Logf("serial %.6f s, overlapped %.6f s (%.1f%% faster, %d rounds hidden, %.6f s saved per-rank sum)",
		serialT, overlapT, 100*(1-overlapT/serialT), overlapRounds, overlapSaved)
}
