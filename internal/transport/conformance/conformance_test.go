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
func tcpBuilder(wrap func(rank int, cfg *transport.TCPConfig)) Builder {
	return func(t testing.TB, size int) []transport.Transport {
		cfg := func(rank int, addr string) transport.TCPConfig {
			c := transport.TCPConfig{
				Addr:             addr,
				Rank:             rank,
				Size:             size,
				BootstrapTimeout: 30 * time.Second,
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
	Run(t, tcpBuilder(nil))
}

// TestFaultedTCPConformance is the fail-stop contract under the -fault-spec
// schedule (resets, cut frames, CRC-caught corruption, delays): every world
// the schedule disrupts fails fast with ErrAborted on every rank, each
// error naming a peer rank, and a re-run on fresh clean meshes is
// byte-identical to the local transport. Rows: the scenario table plain
// and with frame compression (corruption must be caught by the CRC over
// the compressed bytes), and two interleaved jobs on one mesh. A row whose
// schedule never disrupted a world fails: it exercised nothing.
func TestFaultedTCPConformance(t *testing.T) {
	spec, err := faultinject.ParseSpec(*faultSpec)
	if err != nil {
		t.Fatalf("bad -fault-spec: %v", err)
	}
	if len(spec.Kills) > 0 {
		t.Fatalf("-fault-spec %q kills ranks; conformance injects link faults only", *faultSpec)
	}
	for _, row := range []struct {
		name       string
		compress   bool
		concurrent bool
	}{
		{"plain", false, false},
		{"compressed", true, false},
		{"concurrent", false, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var mu sync.Mutex
			var injectors []*faultinject.Injector
			disrupted := func() uint64 {
				mu.Lock()
				defer mu.Unlock()
				var n uint64
				for _, in := range injectors {
					s := in.Stats()
					n += s.Resets + s.Partials + s.Corruptions
				}
				return n
			}
			faulted := tcpBuilder(func(rank int, cfg *transport.TCPConfig) {
				// A fresh injector per world: worlds must not consume each
				// other's one-shot events.
				in := faultinject.New(spec, rank)
				mu.Lock()
				injectors = append(injectors, in)
				mu.Unlock()
				cfg.Compress = row.compress
				cfg.WrapConn = in.WrapConn
			})
			clean := tcpBuilder(func(rank int, cfg *transport.TCPConfig) {
				cfg.Compress = row.compress
			})
			hit := 0
			if row.concurrent {
				if FailStopJobs(t, faulted, clean, disrupted) {
					hit = 1
				}
			} else {
				hit = FailStop(t, faulted, clean, disrupted)
			}
			if hit == 0 {
				t.Fatalf("fault schedule %q never disrupted a world; the faulted run exercised nothing", *faultSpec)
			}
			t.Logf("%d faulted worlds failed fast", hit)
		})
	}
}

// TestCompressedTCPConformance re-runs the whole scenario table with wire
// v3 frame compression on: outputs must stay byte-identical to the local
// transport, proving compression is invisible above the framing layer.
func TestCompressedTCPConformance(t *testing.T) {
	Run(t, tcpBuilder(func(rank int, cfg *transport.TCPConfig) {
		cfg.Compress = true
	}))
}

// TestConcurrentJobsLocal: two interleaved job streams on the in-process
// mesh are byte-identical to each stream running alone.
func TestConcurrentJobsLocal(t *testing.T) {
	ConcurrentJobs(t, LocalBuilder)
}

// TestConcurrentJobsTCP: the same multi-tenancy contract over real sockets.
func TestConcurrentJobsTCP(t *testing.T) {
	ConcurrentJobs(t, tcpBuilder(nil))
}
