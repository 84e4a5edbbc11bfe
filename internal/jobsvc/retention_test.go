package jobsvc

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
)

// liveHeap returns the bytes of live heap objects after two full collections
// (the second empties sync.Pool's victim cache).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSettledJobsKeepOnlyStatusLines: a long-running daemon may keep one
// status line per job it ever ran — Status lists them all — but nothing else.
// 2 000 tiny jobs settle, their submitters drop their streams, and the live
// heap may grow by at most 256 bytes per job; an event channel kept per
// settled job would cost about 1.8 KB.
func TestSettledJobsKeepOnlyStatusLines(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state changes what the heap holds")
	}
	const (
		jobs     = 2000
		inFlight = 8
		perJob   = 256
	)
	s := newTestServer(t, LocalMesh(testRanks), 0)
	run := func(n int) {
		var wg sync.WaitGroup
		sem := make(chan struct{}, inFlight)
		for i := 0; i < n; i++ {
			_, events, err := s.Submit(Spec{Bytes: 256, Seed: uint64(i), Hint: true})
			if err != nil {
				t.Fatal(err)
			}
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				for ev := range events {
					if ev.Event == EvError {
						t.Errorf("job %d failed: %s", ev.Job, ev.Error)
					}
				}
			}()
		}
		wg.Wait()
	}
	run(50) // warm the mesh, the pools and the scheduler's slices
	before := liveHeap()
	run(jobs)
	grew := int64(liveHeap()) - int64(before)

	st := s.StatusSnapshot()
	if len(st.Jobs) != 50+jobs {
		t.Fatalf("status lists %d jobs, want %d", len(st.Jobs), 50+jobs)
	}
	for _, js := range st.Jobs {
		if js.State != StateDone {
			t.Fatalf("job %d is %s, want %s", js.Job, js.State, StateDone)
		}
	}
	t.Logf("live heap grew %d bytes over %d settled jobs: %.0f B per job", grew, jobs, float64(grew)/jobs)
	if grew > jobs*perJob {
		t.Fatalf("live heap grew %d bytes over %d settled jobs (%.0f B per job), want at most %d per job",
			grew, jobs, float64(grew)/jobs, perJob)
	}
}
