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

// Property: the double-buffered aggregate produces exactly the reference
// word counts across rank counts, comm-buffer sizes, and the hint/pr/cps
// optimization ladder.
func TestAggregateMatchesReferenceProperty(t *testing.T) {
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
					got := runWC(t, p, lines, func(cfg *Config) {
						cfg.CommBuf = commBuf
						step.mod(cfg)
					})
					if len(got) != len(want) {
						t.Logf("p=%d commbuf=%d %s: %d unique words, want %d",
							p, commBuf, step.name, len(got), len(want))
						return false
					}
					for w, n := range want {
						if got[w] != n {
							t.Logf("p=%d commbuf=%d %s: count[%q]=%d, want %d",
								p, commBuf, step.name, w, got[w], n)
							return false
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
func timedWC(t *testing.T) (simT float64, overlapRounds int, savedSec float64) {
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
			Arena:   arena,
			CommBuf: 12 * MinPartition,
			Costs:   Costs{MapPerByte: 1e-7, KVPerByte: 3e-7, PerRecord: 1e-6, ReducePerByte: 1e-7},
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

// TestOverlapSavesSimTime pins the overlapped aggregate's point: with
// compute and network costs charged, exchange rounds hide behind the map
// and the stats say how much simulated time that saved.
func TestOverlapSavesSimTime(t *testing.T) {
	simT, overlapRounds, overlapSaved := timedWC(t)
	if overlapRounds == 0 {
		t.Error("overlapped run hid no rounds (OverlapRounds = 0)")
	}
	if overlapSaved <= 0 {
		t.Error("overlapped run saved no simulated time (OverlapSavedSec = 0)")
	}
	t.Logf("job %.6f s, %d rounds hidden, %.6f s saved per-rank sum", simT, overlapRounds, overlapSaved)
}
