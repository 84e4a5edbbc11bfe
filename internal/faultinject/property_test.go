package faultinject_test

// The end-to-end property of the fail-stop transport: under ANY randomized
// fault schedule, a distributed WordCount either completes with output
// byte-identical to the fault-free run, or every rank that fails surfaces
// ErrAborted — and it never hangs or panics. quick.Check draws the seeds;
// every schedule is reconstructible from its seed alone, so a failure here
// replays locally from the logged seed.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mimir/internal/driver"
	"mimir/internal/faultinject"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

const propRanks = 3

var propConfig = driver.JobConfig{
	Dist:       workloads.Uniform,
	TotalBytes: 1 << 16,
	Seed:       5,
	Hint:       true,
	PR:         true,
}

// specFromSeed derives a complete random fault schedule from one seed:
// background chaos, one or two scheduled wire events, and (one time in
// three) a process kill.
func specFromSeed(seed uint64) faultinject.Spec {
	x := seed
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	spec := faultinject.Spec{
		Seed:  seed,
		Chaos: 0.001 + float64(next()%20)/1000, // 0.1% .. 2% per frame
		Delay: time.Millisecond,
	}
	kinds := []faultinject.Kind{faultinject.Reset, faultinject.Corrupt, faultinject.Partial, faultinject.Delay}
	for i := uint64(0); i <= next()%2; i++ {
		rank := int(next()%(propRanks+1)) - 1 // AllRanks .. propRanks-1
		spec.Events = append(spec.Events, faultinject.Event{
			Kind:  kinds[next()%4],
			Rank:  rank,
			Frame: next() % 4,
		})
	}
	if next()%3 == 0 {
		// A round beyond the job's collective count means the kill never
		// fires — the success path under chaos is exercised too.
		spec.Kills = []faultinject.Kill{{Rank: int(next() % propRanks), Round: next() % 12}}
	}
	return spec
}

// faultedMesh builds an in-process TCP mesh (real loopback sockets) where
// every rank plays its part of the schedule: wire faults via WrapConn,
// kills via the Wrap decorator. The schedule counts the initial barrier's
// frames too, so a fault can abort a rank's bootstrap: errs[r] is then its
// error and trs[r] is nil.
func faultedMesh(spec faultinject.Spec) (trs []transport.Transport, errs []error) {
	injs := make([]*faultinject.Injector, propRanks)
	for r := range injs {
		injs[r] = faultinject.New(spec, r)
	}
	cfg := func(rank int, addr string) transport.TCPConfig {
		return transport.TCPConfig{
			Addr: addr, Rank: rank, Size: propRanks,
			BootstrapTimeout: 30 * time.Second,
			WrapConn:         injs[rank].WrapConn,
		}
	}
	trs = make([]transport.Transport, propRanks)
	errs = make([]error, propRanks)
	b, err := transport.ListenTCP(cfg(0, "127.0.0.1:0"))
	if err != nil {
		for r := range errs {
			errs[r] = err
		}
		return trs, errs
	}
	var wg sync.WaitGroup
	for r := 1; r < propRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(cfg(r, b.Addr()))
			if err != nil {
				errs[r] = err
				return
			}
			trs[r] = injs[r].Wrap(tr)
		}(r)
	}
	tr0, err := b.Accept()
	if err != nil {
		errs[0] = err
	} else {
		trs[0] = injs[0].Wrap(tr0)
	}
	wg.Wait()
	return trs, errs
}

// TestWordCountUnderRandomFaults is the property test. Each seed becomes a
// fault schedule; the faulted multi-transport run must either match the
// fault-free reference byte-for-byte or abort everywhere — bounded by a
// watchdog, so a hang is a failure, not a timeout.
func TestWordCountUnderRandomFaults(t *testing.T) {
	ref, err := driver.RunJob(mpi.NewWorld(mpi.Config{
		Size: propRanks,
		Net:  simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9},
	}), propConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no output")
	}

	count := 6
	if testing.Short() {
		count = 2
	}
	property := func(seed uint64) bool {
		spec := specFromSeed(seed)
		t.Logf("seed %d: spec %q", seed, spec.String())
		if err := runFaultedWordCount(spec, ref); err != nil {
			t.Errorf("seed %d (spec %q): %v", seed, spec.String(), err)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: count,
		Rand:     rand.New(rand.NewSource(0x6d696d69)), // deterministic seed stream
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func runFaultedWordCount(spec faultinject.Spec, ref []byte) error {
	trs, errs := faultedMesh(spec)
	outs := make([][]byte, propRanks)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := range trs {
			if trs[r] == nil {
				continue // its bootstrap failed: errs[r] says how
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				world := mpi.NewWorld(mpi.Config{Transport: trs[r]})
				outs[r], errs[r] = driver.RunJob(world, propConfig, nil)
				world.Close()
			}(r)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// Leak the stuck goroutines rather than wait forever; the test
		// fails loudly either way.
		return errors.New("world hung under the fault schedule")
	}
	failed := 0
	for r, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if !errors.Is(err, transport.ErrAborted) {
			return fmt.Errorf("rank %d failed with %v, want ErrAborted or success", r, err)
		}
	}
	if failed == 0 && !bytes.Equal(outs[0], ref) {
		return fmt.Errorf("completed run not byte-identical to fault-free reference: %d vs %d bytes", len(outs[0]), len(ref))
	}
	return nil
}
