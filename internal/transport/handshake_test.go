package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every accept path admits a dialer by one rule: the world size and epoch
// match, the rank is one this listener expects, and that rank is not
// already connected. What a path does with a hello that breaks the rule is
// its own policy: the rank-0 bootstrap drops a stale-epoch dialer and keeps
// accepting but fails on any other bad hello; a worker's mesh accept fails
// its bootstrap with an error naming the dialer's rank. Once the mesh is up
// no listener is left to dial.

const (
	hsSize  = 4
	hsEpoch = 7
	hsAddr  = "127.0.0.1:1" // an advertised mesh address nobody dials
)

// badHello is one row of the rejection table: the hello a dialer sends to a
// listener expecting world size hsSize at epoch hsEpoch.
type badHello struct {
	name string
	h    hello
	// dup sends h once first as a valid join, so the second copy arrives
	// for a rank that is already connected.
	dup bool
}

func dialHello(t *testing.T, addr string, h hello) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeHello(conn, h); err != nil {
		t.Fatal(err)
	}
	return conn
}

// sendBad delivers row's hello (preceded by a valid copy when row.dup) to
// addr and returns the connection that carried the bad one.
func sendBad(t *testing.T, addr string, row badHello) net.Conn {
	t.Helper()
	if row.dup {
		first := dialHello(t, addr, row.h)
		if _, err := readHello(first); err != nil {
			t.Fatalf("valid first join as rank %d: %v", row.h.Rank, err)
		}
	}
	return dialHello(t, addr, row.h)
}

// wantClosedUnanswered asserts the listener closed conn without a hello
// reply.
func wantClosedUnanswered(t *testing.T, conn net.Conn) {
	t.Helper()
	if h, err := readHello(conn); err == nil {
		t.Fatalf("bad hello was answered with %+v; want the connection closed", h)
	}
}

func wantFailureNaming(t *testing.T, err error, rank int) {
	t.Helper()
	if err == nil {
		t.Fatal("bad hello was admitted; want the bootstrap to fail")
	}
	if name := fmt.Sprintf("rank %d", rank); !strings.Contains(err.Error(), name) {
		t.Fatalf("error %q does not name the dialer (%s)", err, name)
	}
}

func TestHandshakeRejections(t *testing.T) {
	t.Run("bootstrap", func(t *testing.T) {
		rows := []badHello{
			{name: "wrong-size", h: hello{Rank: 1, Size: hsSize + 1, Epoch: hsEpoch, Addr: hsAddr}},
			{name: "wrong-epoch", h: hello{Rank: 1, Size: hsSize, Epoch: hsEpoch - 1, Addr: hsAddr}},
			{name: "rank-out-of-range", h: hello{Rank: hsSize, Size: hsSize, Epoch: hsEpoch, Addr: hsAddr}},
			{name: "duplicate-rank", h: hello{Rank: 1, Size: hsSize, Epoch: hsEpoch, Addr: hsAddr}, dup: true},
			{name: "no-address", h: hello{Rank: 1, Size: hsSize, Epoch: hsEpoch}},
		}
		for _, row := range rows {
			t.Run(row.name, func(t *testing.T) { bootstrapRejects(t, row) })
		}
	})
	t.Run("mesh-accept", func(t *testing.T) {
		rows := []badHello{
			{name: "wrong-size", h: hello{Rank: 2, Size: hsSize + 1, Epoch: hsEpoch}},
			{name: "wrong-epoch", h: hello{Rank: 2, Size: hsSize, Epoch: hsEpoch - 1}},
			{name: "rank-out-of-range", h: hello{Rank: hsSize, Size: hsSize, Epoch: hsEpoch}},
			{name: "duplicate-rank", h: hello{Rank: 2, Size: hsSize, Epoch: hsEpoch}, dup: true},
		}
		for _, row := range rows {
			t.Run(row.name, func(t *testing.T) { meshAcceptRejects(t, row) })
		}
	})
}

// bootstrapRejects sends row's hello to a rank-0 bootstrap. A stale epoch
// must be dropped softly (real workers joining afterwards complete the
// world); anything else must fail Accept.
func bootstrapRejects(t *testing.T, row badHello) {
	cfg := TCPConfig{Addr: "127.0.0.1:0", Size: hsSize, Epoch: hsEpoch,
		Deadline: 2 * time.Second, BootstrapTimeout: 20 * time.Second}
	b, err := ListenTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		tr  *TCP
		err error
	}
	accepted := make(chan result, 1)
	go func() {
		tr, err := b.Accept()
		accepted <- result{tr, err}
	}()
	conn := sendBad(t, b.Addr(), row)
	if row.h.Epoch == hsEpoch {
		r := <-accepted
		if r.tr != nil {
			r.tr.Close()
		}
		wantFailureNaming(t, r.err, row.h.Rank)
		return
	}
	wantClosedUnanswered(t, conn)
	trs := make([]*TCP, hsSize)
	errs := make([]error, hsSize)
	var wg sync.WaitGroup
	for r := 1; r < hsSize; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			wcfg := cfg
			wcfg.Addr, wcfg.Rank = b.Addr(), r
			trs[r], errs[r] = NewTCP(wcfg)
		}(r)
	}
	res := <-accepted
	wg.Wait()
	trs[0], errs[0] = res.tr, res.err
	for _, tr := range trs {
		if tr != nil {
			defer tr.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d after a stale-epoch dial: %v", r, err)
		}
	}
}

// workerAwaitingMesh plays rank 0 for one real worker of rank 1 in a
// size-rank world: it admits the worker and sends the address table, so the
// worker moves on to accepting ranks 2.. on the mesh listener it advertised.
// It returns that listener's address and the worker's NewTCP error.
func workerAwaitingMesh(t *testing.T, size int, timeout time.Duration) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	joined := make(chan error, 1)
	go func() {
		tr, err := NewTCP(TCPConfig{Addr: ln.Addr().String(), Rank: 1, Size: size, Epoch: hsEpoch,
			Deadline: 2 * time.Second, BootstrapTimeout: timeout})
		if err == nil {
			tr.Close()
		}
		joined <- err
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	h, err := readHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, hello{Rank: 0, Size: size, Epoch: hsEpoch}); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, size)
	for r := range addrs {
		addrs[r] = hsAddr
	}
	addrs[0], addrs[1] = ln.Addr().String(), h.Addr
	if err := WriteFrame(conn, &Frame{Op: OpTable, Data: encodeTable(addrs)}); err != nil {
		t.Fatal(err)
	}
	return h.Addr, joined
}

// meshAcceptRejects sends row's hello to a worker's mesh listener while the
// worker is still bootstrapping: its NewTCP must fail, naming the dialer.
func meshAcceptRejects(t *testing.T, row badHello) {
	addr, joined := workerAwaitingMesh(t, hsSize, 20*time.Second)
	sendBad(t, addr, row)
	select {
	case err := <-joined:
		wantFailureNaming(t, err, row.h.Rank)
	case <-time.After(15 * time.Second):
		t.Fatal("worker kept bootstrapping after a bad mesh hello")
	}
}

// TestBootstrapNamesMissingRanks: when a bootstrap times out, the error
// lists the ranks that never connected — on rank 0's bootstrap accept and
// on a worker's mesh accept.
func TestBootstrapNamesMissingRanks(t *testing.T) {
	const size = 3
	const timeout = time.Second
	t.Run("bootstrap", func(t *testing.T) {
		b, err := ListenTCP(TCPConfig{Addr: "127.0.0.1:0", Size: size, BootstrapTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			// Rank 1 joins; rank 2 never dials.
			if tr, err := NewTCP(TCPConfig{Addr: b.Addr(), Rank: 1, Size: size, BootstrapTimeout: timeout}); err == nil {
				tr.Close()
			}
		}()
		tr, err := b.Accept()
		if err == nil {
			tr.Close()
			t.Fatal("bootstrap completed without rank 2")
		}
		if !strings.Contains(err.Error(), "missing ranks [2]") {
			t.Fatalf("error %q does not name the missing rank 2", err)
		}
	})
	t.Run("mesh-accept", func(t *testing.T) {
		_, joined := workerAwaitingMesh(t, size, timeout)
		err := <-joined
		if err == nil {
			t.Fatal("worker completed its mesh without rank 2")
		}
		if !strings.Contains(err.Error(), "missing ranks [2]") {
			t.Fatalf("error %q does not name the missing rank 2", err)
		}
	})
}
