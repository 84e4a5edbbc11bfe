package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// Exchange, point-to-point, collective, and abort semantics shared with the
// local transport are covered by the cross-transport conformance suite
// (internal/transport/conformance); this file tests what is TCP-specific —
// bootstrap, configuration, clean shutdown, SPMD violation detection, and
// fail-stop on a failed link (cut frames, deadlines, peer death).

// startMeshCfg brings up a size-rank TCP world inside this one test
// process: rank 0 listens on loopback, the other ranks dial concurrently.
// mutate, when non-nil, customizes each rank's config. Transports are
// closed at test cleanup.
func startMeshCfg(t *testing.T, size int, mutate func(rank int, cfg *TCPConfig)) []*TCP {
	t.Helper()
	cfg := func(rank int, addr string) TCPConfig {
		c := TCPConfig{Addr: addr, Rank: rank, Size: size, BootstrapTimeout: 30 * time.Second}
		if mutate != nil {
			mutate(rank, &c)
		}
		return c
	}
	b, err := ListenTCP(cfg(0, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*TCP, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = NewTCP(cfg(r, b.Addr()))
		}(r)
	}
	trs[0], errs[0] = b.Accept()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d bootstrap: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return trs
}

func startMesh(t *testing.T, size int) []*TCP {
	t.Helper()
	return startMeshCfg(t, size, nil)
}

func TestTCPBootstrapAndProperties(t *testing.T) {
	const size = 4
	trs := startMesh(t, size)
	for r, tr := range trs {
		if tr.Size() != size {
			t.Fatalf("rank %d: size %d", r, tr.Size())
		}
		if !tr.Wall() {
			t.Fatalf("rank %d: TCP transport must be wall-clock", r)
		}
		locals := tr.LocalRanks()
		if len(locals) != 1 || locals[0] != r {
			t.Fatalf("rank %d: local ranks %v", r, locals)
		}
		if got := tr.Endpoint(r).Rank(); got != r {
			t.Fatalf("endpoint rank %d, want %d", got, r)
		}
	}
}

func TestTCPPeerDeathSurfacesErrAborted(t *testing.T) {
	const size = 3
	trs := startMesh(t, size)
	// Rank 0 parks in a recv that will never be matched.
	done := make(chan error, 1)
	go func() {
		_, err := trs[0].Endpoint(0).Recv(2, 1)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	// Rank 2 dies abruptly: connections drop with no Bye. In-process stand-in
	// for a killed worker process.
	trs[2].Sever(fmt.Errorf("%w: simulated death", ErrAborted))
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("recv returned %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer death did not release parked recv")
	}
}

// cutConn kills the connection in the middle of a frame write: on the
// trigger write it sends only half the bytes, closes the socket, and fails.
type cutConn struct {
	net.Conn
	writes  int
	trigger int
}

func (c *cutConn) Write(b []byte) (int, error) {
	c.writes++
	if c.writes == c.trigger {
		half := len(b) / 2
		c.Conn.Write(b[:half])
		c.Conn.Close()
		return half, fmt.Errorf("cutConn: link cut mid-frame")
	}
	return c.Conn.Write(b)
}

// pausedReadConn stops reading its socket for pause once after bytes
// have been read: a peer that stops draining mid-transfer, so the sender's
// socket buffers fill and its next write misses the deadline. It then
// reads on, as a live process would. Only the link's reader calls Read.
type pausedReadConn struct {
	net.Conn
	after  int
	pause  time.Duration
	read   int
	paused bool
}

func (c *pausedReadConn) Read(b []byte) (int, error) {
	if !c.paused && c.read >= c.after {
		c.paused = true
		time.Sleep(c.pause)
	}
	n, err := c.Conn.Read(b)
	c.read += n
	return n, err
}

// TestTCPLinkFailureAbortsWorld is the fail-stop contract on one link: a
// frame cut mid-write, or a write that misses its deadline because the
// peer stopped draining, on rank 1's link to rank 0 aborts the world on
// every rank, promptly, with an ErrAborted naming a peer rank and — on
// rank 1, which saw it — the cause. Rank 1 counts the failure once; rank 2,
// which only had the abort relayed to it, does not count it.
func TestTCPLinkFailureAbortsWorld(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload int // bytes rank 1 sends rank 0 per round
		wrap    func(rank int, cfg *TCPConfig)
		cause   string
	}{
		{"cut-mid-frame", 4 << 10, func(rank int, cfg *TCPConfig) {
			if rank == 1 {
				cfg.WrapConn = func(peer int, c net.Conn) net.Conn {
					if peer != 0 {
						return c
					}
					return &cutConn{Conn: c, trigger: 3}
				}
			}
		}, "link cut mid-frame"},
		{"write-deadline", 32 << 20, func(rank int, cfg *TCPConfig) {
			cfg.Deadline = 200 * time.Millisecond
			if rank == 0 {
				cfg.WrapConn = func(peer int, c net.Conn) net.Conn {
					if peer != 1 {
						return c
					}
					return &pausedReadConn{Conn: c, after: 1 << 20, pause: time.Second}
				}
			}
		}, "i/o timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const size = 3
			trs := startMeshCfg(t, size, tc.wrap)
			errs := make([]error, size)
			var wg sync.WaitGroup
			start := time.Now()
			for r := 0; r < size; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					send := make([][]byte, size)
					for dst := range send {
						n := 4 << 10
						if r == 1 && dst == 0 {
							n = tc.payload
						}
						send[dst] = bytes.Repeat([]byte{byte(r)}, n)
					}
					for round := 0; round < 8 && errs[r] == nil; round++ {
						_, _, errs[r] = trs[r].Endpoint(r).Exchange(send, 0)
					}
				}(r)
			}
			wg.Wait()
			if took := time.Since(start); took > 3*time.Second {
				t.Errorf("world took %v to abort", took)
			}
			for r, err := range errs {
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("rank %d: err = %v, want ErrAborted", r, err)
				}
			}
			if msg := errs[1].Error(); !strings.Contains(msg, "rank 0") || !strings.Contains(msg, tc.cause) {
				t.Errorf("rank 1: %q does not name rank 0 and the cause %q", msg, tc.cause)
			}
			for _, r := range []int{0, 2} {
				if !strings.Contains(errs[r].Error(), "rank 1") {
					t.Errorf("rank %d: %q does not name rank 1", r, errs[r])
				}
			}
			if got := trs[1].FaultStats().LinkFailures; got != 1 {
				t.Errorf("rank 1 counted %d link failures, want 1", got)
			}
			if got := trs[2].FaultStats().LinkFailures; got != 0 {
				t.Errorf("rank 2 counted %d link failures for a relayed abort, want 0", got)
			}
		})
	}
}

// slowReadConn throttles reads: a peer that is alive but drains slowly.
type slowReadConn struct {
	net.Conn
	chunk int
	pause time.Duration
}

func (c *slowReadConn) Read(b []byte) (int, error) {
	if len(b) > c.chunk {
		b = b[:c.chunk]
	}
	time.Sleep(c.pause)
	return c.Conn.Read(b)
}

// TestTCPSlowPeerSurvivesLargeExchange is the regression test for the
// whole-frame write deadline bug: a large Exchange to a slow-but-alive peer
// took longer than Deadline end to end and was misdeclared dead, even
// though bytes were flowing the whole time. The per-chunk deadline re-arm
// must let the transfer finish.
func TestTCPSlowPeerSurvivesLargeExchange(t *testing.T) {
	const size = 2
	const deadline = 250 * time.Millisecond
	trs := startMeshCfg(t, size, func(rank int, cfg *TCPConfig) {
		cfg.Deadline = deadline
		if rank == 1 {
			// Rank 1 drains its link from rank 0 at roughly 4 MB/s: the
			// whole payload cannot arrive within one Deadline, but every
			// 128 KiB chunk can.
			cfg.WrapConn = func(peer int, c net.Conn) net.Conn {
				if peer != 0 {
					return c
				}
				return &slowReadConn{Conn: c, chunk: 16 << 10, pause: 2 * time.Millisecond}
			}
		}
	})
	payload := bytes.Repeat([]byte("slowly!!"), 2<<20/8) // 2 MiB
	var wg sync.WaitGroup
	errs := make([]error, size)
	start := time.Now()
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			send := make([][]byte, size)
			for dst := range send {
				send[dst] = payload
			}
			recv, _, err := trs[r].Endpoint(r).Exchange(send, 0)
			if err != nil {
				errs[r] = err
				return
			}
			for src := range recv {
				if !bytes.Equal(recv[src], payload) {
					errs[r] = fmt.Errorf("bad payload from %d", src)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v (slow-but-alive peer treated as dead?)", r, err)
		}
	}
	if elapsed := time.Since(start); elapsed < deadline {
		t.Skipf("transfer finished in %v, too fast to exercise the deadline re-arm", elapsed)
	}
}

func TestTCPSPMDSeqMismatch(t *testing.T) {
	const size = 2
	trs := startMesh(t, size)
	var wg sync.WaitGroup
	wg.Add(2)
	var err0, err1 error
	go func() {
		defer wg.Done()
		ep := trs[0].Endpoint(0)
		// Rank 0 runs two exchanges; rank 1 only one: the second must not
		// silently mismatch.
		_, _, err0 = ep.Exchange(nil, 0)
		if err0 == nil {
			_, _, err0 = ep.Exchange(nil, 1)
		}
	}()
	go func() {
		defer wg.Done()
		ep := trs[1].Endpoint(1)
		_, _, err1 = ep.Exchange(nil, 0)
		if err1 == nil {
			// Desynchronize: a p2p send consumed where a collective is due is
			// the classic SPMD violation.
			err1 = ep.Send(0, 3, []byte("oops"), 2)
		}
	}()
	// Give the mismatch a moment to surface, then abort so nothing hangs.
	time.Sleep(200 * time.Millisecond)
	trs[0].Abort(fmt.Errorf("%w: test cleanup", ErrAborted))
	wg.Wait()
	// The first exchange must have succeeded on both ranks.
	if err1 != nil {
		t.Fatalf("rank 1: %v", err1)
	}
}

func TestTCPConfigValidation(t *testing.T) {
	bad := []TCPConfig{
		{Addr: "", Rank: 0, Size: 2},
		{Addr: "x:1", Rank: -1, Size: 2},
		{Addr: "x:1", Rank: 2, Size: 2},
		{Addr: "x:1", Rank: 0, Size: 0},
	}
	for _, cfg := range bad {
		if err := cfg.withDefaults().validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewTCP(TCPConfig{Addr: "127.0.0.1:1", Rank: 3, Size: 2}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestTCPCleanCloseIsNotAbort(t *testing.T) {
	const size = 2
	trs := startMesh(t, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if _, _, err := trs[r].Endpoint(r).Exchange(nil, 0); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			if err := trs[r].Close(); err != nil {
				t.Errorf("rank %d close: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
}
