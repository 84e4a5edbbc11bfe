package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
)

// skewedLines builds a corpus where one word carries roughly frac of all
// occurrences — the zipf-hot shape the sample partitioner exists for.
func skewedLines(n int, frac float64) []string {
	lines := make([]string, n)
	hotPerLine := int(frac * 8 / (1 - frac))
	for i := range lines {
		words := make([]string, 0, 8+hotPerLine)
		for h := 0; h < hotPerLine; h++ {
			words = append(words, "the")
		}
		for w := 0; w < 8; w++ {
			words = append(words, fmt.Sprintf("w%03d", (i*8+w)%200))
		}
		lines[i] = strings.Join(words, " ")
	}
	return lines
}

func TestSamplePartitionerWordCount(t *testing.T) {
	// The sample-planned run must produce exactly the hash run's merged
	// counts, across the core workflow variants.
	lines := skewedLines(96, 0.5)
	want := refWordCount(lines)
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"plain", nil},
		{"pr", func(cfg *Config) { cfg.PartialReduce = wcCombine }},
		{"cps", func(cfg *Config) { cfg.Combiner = wcCombine }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWC(t, 4, lines, func(cfg *Config) {
				cfg.Partitioner = &partition.SamplePartitioner{}
				if tc.mod != nil {
					tc.mod(cfg)
				}
			})
			checkWC(t, got, want)
		})
	}
}

func TestSamplePartitionerSplitsHotKey(t *testing.T) {
	// With partial reduction the planner may split the hot key over several
	// ranks; the partials must re-merge to exactly the unsplit totals, and
	// the split machinery must actually have engaged.
	lines := skewedLines(96, 0.6)
	const p = 4
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	got := map[string]uint64{}
	splitSeen := false
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{
			Arena:         arena,
			Partitioner:   &partition.SamplePartitioner{},
			PartialReduce: wcCombine,
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
		defer mu.Unlock()
		if job.asn != nil && job.asn.Splits() {
			splitSeen = true
		}
		return out.Scan(func(k, v []byte) error {
			got[string(k)] += BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, got, refWordCount(lines))
	if !splitSeen {
		t.Fatal("60%-hot key was not split — split+re-merge path untested")
	}
}

func TestSamplePartitionerNoSplitWithCheckpoint(t *testing.T) {
	// Checkpointed jobs must plan without splitting so checkpointed keys
	// stay whole per rank (RepartitionCheckpoint's contract).
	lines := skewedLines(48, 0.6)
	fs := ckptFS()
	const p = 2
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	got := map[string]uint64{}
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{
			Arena:         arena,
			Partitioner:   &partition.SamplePartitioner{},
			PartialReduce: wcCombine,
			Checkpoint:    &Checkpoint{FS: fs, Name: "sample-nosplit"},
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
		defer mu.Unlock()
		if job.asn != nil && job.asn.Splits() {
			return fmt.Errorf("checkpointed job split a key")
		}
		return out.Scan(func(k, v []byte) error {
			got[string(k)] += BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, got, refWordCount(lines))
}

func TestSamplePartitionerBalancesSkew(t *testing.T) {
	// The point of the exercise: under a hot key, the sample plan's max
	// per-rank receive load must be well under the hash plan's.
	lines := skewedLines(128, 0.5)
	loads := func(part partition.Partitioner) []int64 {
		const p = 4
		w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
		arena := mem.NewArena(0)
		recv := make([]int64, p)
		err := w.Run(func(c *mpi.Comm) error {
			job := NewJob(c, Config{Arena: arena, Partitioner: part, PartialReduce: wcCombine})
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
			recv[c.Rank()] = out.Stats.RecvKVs
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return recv
	}
	maxOf := func(xs []int64) int64 {
		var m int64
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	hashMax := maxOf(loads(partition.HashPartitioner{}))
	sampleMax := maxOf(loads(&partition.SamplePartitioner{}))
	if float64(sampleMax) > 0.8*float64(hashMax) {
		t.Errorf("sample max recv %d not well under hash max recv %d", sampleMax, hashMax)
	}
}
