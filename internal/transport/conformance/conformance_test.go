package conformance

import (
	"flag"
	"sync"
	"testing"
	"time"

	"mimir/internal/faultinject"
	"mimir/internal/transport"
)

// faultSpec lets CI's chaos job sweep fixed seeds:
//
//	go test ./internal/transport/conformance -fault-spec seed:7,chaos:0.02
var faultSpec = flag.String("fault-spec", "seed:11,delay:all@frame0,reset:all@frame1,partial:rank2@frame2,corrupt:all@frame3",
	"faultinject spec for the faulted-tcp conformance run")

// tcpBuilder builds an in-process TCP mesh: one *TCP per rank, real
// sockets over loopback. wrap, when non-nil, decorates rank's config.
func tcpBuilder(policy transport.FaultPolicy, wrap func(rank int, cfg *transport.TCPConfig)) Builder {
	return func(t testing.TB, size int) []transport.Transport {
		cfg := func(rank int, addr string) transport.TCPConfig {
			c := transport.TCPConfig{
				Addr:             addr,
				Rank:             rank,
				Size:             size,
				Policy:           policy,
				BootstrapTimeout: 30 * time.Second,
				// Long enough for real recovery (a reconnect takes
				// milliseconds), short enough that the abort scenario —
				// where survivors must give up on the poisoned rank's
				// silent links — doesn't stall the suite.
				ReconnectWindow: 2 * time.Second,
			}
			if wrap != nil {
				wrap(rank, &c)
			}
			return c
		}
		b, err := transport.ListenTCP(cfg(0, "127.0.0.1:0"))
		if err != nil {
			t.Fatal(err)
		}
		trs := make([]transport.Transport, size)
		errs := make([]error, size)
		var wg sync.WaitGroup
		for r := 1; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tr, err := transport.NewTCP(cfg(r, b.Addr()))
				if err != nil {
					errs[r] = err
					return
				}
				trs[r] = tr
			}(r)
		}
		tr0, err := b.Accept()
		if err != nil {
			errs[0] = err
		} else {
			trs[0] = tr0
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d bootstrap: %v", r, err)
			}
		}
		return trs
	}
}

// TestLocalConformance pins the reference transport itself to the table.
func TestLocalConformance(t *testing.T) {
	Digests(t, LocalBuilder)
}

// TestTCPConformance proves the plain TCP transport byte-identical to the
// local one across the whole scenario table.
func TestTCPConformance(t *testing.T) {
	Run(t, tcpBuilder(transport.AbortOnFailure, nil))
}

// TestFaultedTCPConformance proves the fail-recover TCP transport still
// byte-identical to the local one while a deterministic fault schedule
// resets, corrupts, delays, and cuts its connections.
func TestFaultedTCPConformance(t *testing.T) {
	spec, err := faultinject.ParseSpec(*faultSpec)
	if err != nil {
		t.Fatalf("bad -fault-spec: %v", err)
	}
	if len(spec.Kills) > 0 {
		t.Fatalf("-fault-spec %q kills ranks; conformance needs the world to survive", *faultSpec)
	}
	var injectors []*faultinject.Injector
	var mu sync.Mutex
	build := tcpBuilder(transport.RetryTransient, func(rank int, cfg *transport.TCPConfig) {
		// A fresh injector per world: scenario runs must not consume each
		// other's one-shot events.
		in := faultinject.New(spec, rank)
		mu.Lock()
		injectors = append(injectors, in)
		mu.Unlock()
		cfg.WrapConn = in.WrapConn
		cfg.BackoffBase = 5 * time.Millisecond
	})
	Run(t, build)
	mu.Lock()
	defer mu.Unlock()
	fired := faultinject.Stats{}
	for _, in := range injectors {
		s := in.Stats()
		fired.Resets += s.Resets
		fired.Corruptions += s.Corruptions
		fired.Partials += s.Partials
		fired.Delays += s.Delays
	}
	if fired == (faultinject.Stats{}) {
		t.Fatalf("fault schedule %q never fired; the faulted run exercised nothing", *faultSpec)
	}
	t.Logf("faults fired: %+v", fired)
}

// TestCompressedTCPConformance re-runs the whole scenario table with wire
// v3 frame compression on: outputs must stay byte-identical to the local
// transport, proving compression is invisible above the framing layer.
func TestCompressedTCPConformance(t *testing.T) {
	Run(t, tcpBuilder(transport.AbortOnFailure, func(rank int, cfg *transport.TCPConfig) {
		cfg.Compress = true
	}))
}

// TestCompressedFaultedTCPConformance stacks compression on top of the
// deterministic fault schedule: resets force reconnects whose replay ledger
// holds frames in their encoded (compressed) form, corruption must be caught
// by the CRC over the compressed bytes, and the digests must still match the
// local transport — replayed compressed frames resume exactly-once.
func TestCompressedFaultedTCPConformance(t *testing.T) {
	spec, err := faultinject.ParseSpec(*faultSpec)
	if err != nil {
		t.Fatalf("bad -fault-spec: %v", err)
	}
	if len(spec.Kills) > 0 {
		t.Fatalf("-fault-spec %q kills ranks; conformance needs the world to survive", *faultSpec)
	}
	var injectors []*faultinject.Injector
	var mu sync.Mutex
	build := tcpBuilder(transport.RetryTransient, func(rank int, cfg *transport.TCPConfig) {
		in := faultinject.New(spec, rank)
		mu.Lock()
		injectors = append(injectors, in)
		mu.Unlock()
		cfg.Compress = true
		cfg.WrapConn = in.WrapConn
		cfg.BackoffBase = 5 * time.Millisecond
	})
	Run(t, build)
	mu.Lock()
	defer mu.Unlock()
	fired := faultinject.Stats{}
	for _, in := range injectors {
		s := in.Stats()
		fired.Resets += s.Resets
		fired.Corruptions += s.Corruptions
		fired.Partials += s.Partials
		fired.Delays += s.Delays
	}
	if fired == (faultinject.Stats{}) {
		t.Fatalf("fault schedule %q never fired; the compressed faulted run exercised nothing", *faultSpec)
	}
	t.Logf("faults fired: %+v", fired)
}

// TestConcurrentJobsLocal: two interleaved job streams on the in-process
// mesh are byte-identical to each stream running alone.
func TestConcurrentJobsLocal(t *testing.T) {
	ConcurrentJobs(t, LocalBuilder)
}

// TestConcurrentJobsTCP: the same multi-tenancy contract over real sockets.
func TestConcurrentJobsTCP(t *testing.T) {
	ConcurrentJobs(t, tcpBuilder(transport.AbortOnFailure, nil))
}

// TestConcurrentJobsFaultedTCP: two interleaved jobs stay solo-identical
// while the deterministic fault schedule resets, corrupts, delays, and cuts
// the shared mesh's connections under both of them.
func TestConcurrentJobsFaultedTCP(t *testing.T) {
	spec, err := faultinject.ParseSpec(*faultSpec)
	if err != nil {
		t.Fatalf("bad -fault-spec: %v", err)
	}
	if len(spec.Kills) > 0 {
		t.Fatalf("-fault-spec %q kills ranks; conformance needs the world to survive", *faultSpec)
	}
	ConcurrentJobs(t, tcpBuilder(transport.RetryTransient, func(rank int, cfg *transport.TCPConfig) {
		cfg.WrapConn = faultinject.New(spec, rank).WrapConn
		cfg.BackoffBase = 5 * time.Millisecond
	}))
}
