package mimir_test

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"mimir/internal/core"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
	"mimir/internal/workloads"
)

// heapSampler records the peak of the Go heap's live-and-unswept object
// bytes, sampled every millisecond until stop.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func sampleHeap() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return max(h.peak, heapNow())
}

// TestSpillKeepsBytesOffTheHeap: a spilled page must leave the process's
// memory, not just the arena's books. A 2-rank Local wordcount runs under
// SpillWhenNeeded with per-rank caps so small that the job spills more than
// twice their sum, and the Go heap may grow by no more than the caps plus a
// quarter, plus 4 MiB for everything the arena does not track (input
// generation, the transport, the engine's own structures). The GC runs at a
// quarter of its default target, so unswept garbage does not count as
// retained memory. Spill files that lived in the heap would put every
// spilled byte on top of the caps.
func TestSpillKeepsBytesOffTheHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what the heap holds")
	}
	const (
		ranks  = 2
		corpus = 8 << 20 // bytes of text over all ranks
		perCap = 4 << 20 // arena bytes per rank
	)
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	world := mpi.NewWorld(mpi.Config{Size: ranks, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
	fs := pfs.New(pfs.Config{})
	spilled := make([]int64, ranks)
	words := make([]int64, ranks)

	runtime.GC()
	base := heapNow()
	h := sampleHeap()
	err := world.Run(func(c *mpi.Comm) error {
		eng := workloads.NewMimirEngine(c, mem.NewArena(perCap))
		eng.OutOfCore = core.SpillWhenNeeded
		eng.SpillFS = fs
		input := workloads.TextInput(nil, c.Clock(), workloads.Uniform, 11, corpus, c.Rank(), c.Size())
		st, err := eng.RunStage(workloads.StageOpts{Hint: workloads.WCHint()}, input,
			workloads.WordCountMap, workloads.WordCountReduce, func(k, v []byte) error {
				words[c.Rank()] += int64(core.BytesUint64(v))
				return nil
			})
		spilled[c.Rank()] = st.SpilledBytes
		return err
	})
	peak := h.stop()
	if err != nil {
		t.Fatal(err)
	}

	caps := int64(ranks * perCap)
	var totalSpilled, totalWords int64
	for r := range spilled {
		totalSpilled += spilled[r]
		totalWords += words[r]
	}
	if totalWords == 0 {
		t.Fatal("the wordcount counted no words")
	}
	if totalSpilled < 2*caps {
		t.Fatalf("spilled %d bytes, want at least twice the caps (%d) for the bound to mean anything", totalSpilled, 2*caps)
	}
	grew := int64(peak) - int64(base)
	bound := caps*5/4 + 4<<20
	t.Logf("heap grew %.2f MB over a %.2f MB baseline: %.2f x the %.2f MB of caps, bound %.2f MB; %.2f MB spilled",
		float64(grew)/1e6, float64(base)/1e6, float64(grew)/float64(caps), float64(caps)/1e6, float64(bound)/1e6, float64(totalSpilled)/1e6)
	if grew > bound {
		t.Errorf("heap grew %d bytes under %d bytes of caps, want at most %d", grew, caps, bound)
	}
}
