package transport

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"mimir/internal/mem"
)

// recyclePanics runs fn and reports the panic message of the pool misuse
// panic it is expected to raise, or "" if it returned normally.
func recyclePanics(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	fn()
	return ""
}

// TestCommDoubleRecycleCaught lifts the double-recycle check to the public
// surface the runtime uses: a received message's payload handed back through
// Transport.Recycle twice must panic under DebugPool, proving misuse by a
// Comm.Recycle caller is caught, not silently corrupting.
func TestCommDoubleRecycleCaught(t *testing.T) {
	trs := startMesh(t, 2)
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := trs[0].Send(1, 7, payload, 0); err != nil {
		t.Fatal(err)
	}
	m, err := trs[1].Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	mem.DebugPool(true)
	defer mem.DebugPool(false)
	if msg := recyclePanics(func() { trs[1].Recycle(m.Data) }); msg != "" {
		t.Fatalf("first Recycle panicked: %s", msg)
	}
	msg := recyclePanics(func() { trs[1].Recycle(m.Data) })
	if !strings.Contains(msg, "recycled twice") {
		t.Fatalf("second Recycle: panic %q, want a recycled-twice panic", msg)
	}
}

// TestReplaySnapshotBlocksRecycle pins the reconnect-replay aliasing rule: a
// replay-ledger entry pruned by an ack that lands while install is still
// replaying a snapshot of the ledger must NOT return to the pool — the
// snapshot aliases its backing array, and recycling it would let a
// concurrent writeFrame scribble over bytes mid-write to the peer. After the
// replay finishes (doneReplaying), pruning recycles normally again.
func TestReplaySnapshotBlocksRecycle(t *testing.T) {
	mem.DebugPool(true)
	defer mem.DebugPool(false)

	mk := func(fill byte) []byte {
		b := mem.GetBuf(128)[:0]
		for i := 0; i < 100; i++ {
			b = append(b, fill)
		}
		return b
	}
	b1, b2 := mk(1), mk(2)
	p := &tcpPeer{}
	p.replay = [][]byte{b1, b2}
	p.replayBytes = int64(len(b1) + len(b2))
	p.sentSeq = 2

	// A reconnect snapshots the ledger (install sets replaying while the
	// snapshot is alive); an ack for the first frame arrives mid-replay.
	p.rmu.Lock()
	p.replaying = true
	p.pruneReplayLocked(1)
	p.rmu.Unlock()
	if held := mem.DebugPoolHeld(); held != 0 {
		t.Fatalf("pruned entry recycled during replay: pool holds %d tracked buffers, want 0", held)
	}
	if len(p.replay) != 1 {
		t.Fatalf("ledger holds %d entries after prune, want 1", len(p.replay))
	}
	// b1 is now owned by nobody but the snapshot — it leaks to the GC, so
	// writing through the snapshot cannot race a future pool owner.
	if b1[0] != 1 {
		t.Fatal("snapshot bytes changed by pruning")
	}

	// Replay done: pruning recycles again.
	p.doneReplaying()
	p.rmu.Lock()
	p.pruneReplayLocked(2)
	p.rmu.Unlock()
	if held := mem.DebugPoolHeld(); held != 1 {
		t.Fatalf("pool holds %d tracked buffers after post-replay prune, want 1 (b2 recycled)", held)
	}
	_ = b2
}

// TestReplayPruneAfterReconnectEndToEnd drives the same rule through a real
// link: force a reconnect while traffic is in flight and verify the world
// keeps its exactly-once delivery with the debug tracker armed — any
// double-recycle or snapshot-aliasing bug in the replay path panics the test
// instead of corrupting frames.
func TestReplayPruneAfterReconnectEndToEnd(t *testing.T) {
	mem.DebugPool(true)
	defer mem.DebugPool(false)
	trs := startMeshCfg(t, 2, func(rank int, cfg *TCPConfig) {
		cfg.Policy = RetryTransient
		cfg.BackoffBase = 5 * time.Millisecond
	})
	// Rounds of traffic with a mid-stream link cut: frames queued behind the
	// cut replay on reconnect, acks prune the ledger, and every pooled
	// buffer must move through get/put exactly once.
	for round := 0; round < 3; round++ {
		if round == 1 {
			trs[0].peers[1].wmu.Lock()
			if c := trs[0].peers[1].conn; c != nil {
				c.Close()
			}
			trs[0].peers[1].wmu.Unlock()
		}
		payload := make([]byte, 2048)
		for i := range payload {
			payload[i] = byte(round)
		}
		if err := trs[0].Send(1, round, payload, 0); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		m, err := trs[1].Recv(0, round)
		if err != nil {
			t.Fatalf("round %d recv: %v", round, err)
		}
		if len(m.Data) != 2048 || m.Data[0] != byte(round) {
			t.Fatalf("round %d: corrupt payload (%d bytes, first %d)", round, len(m.Data), m.Data[0])
		}
		trs[1].Recycle(m.Data)
	}
}

// TestReceivedPayloadReturnsToItsClass pins the receive path's pool round
// trip: a delivered payload is a whole pooled buffer, so Recycle files it
// back into the size class it was drawn from, and the next frame of the
// same size is received into the very same backing array — plain or
// inflated from a compressed frame. A payload delivered as a subslice of a
// larger pooled body loses capacity, is filed one class too low, and every
// later frame of that size allocates afresh. The sizes straddle the
// smallest class (63/64/65), sit just under a class boundary once a frame
// header would be added (16 355 = 16 KiB − 29), on it (16 384), inside one
// (10 922, a 2-rank shuffle partition), and at the largest payload read
// whole (trustedLen, 4 MiB). One P and no GC make sync.Pool deterministic: a
// GC empties it, and a second P would keep its own per-P slot.
func TestReceivedPayloadReturnsToItsClass(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled buffers at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem.DebugPool(true)
	defer mem.DebugPool(false)
	for _, compress := range []bool{false, true} {
		trs := startMeshCfg(t, 2, func(rank int, cfg *TCPConfig) { cfg.Compress = compress })
		for _, size := range []int{1, 63, 64, 65, 10922, 16355, 16384, trustedLen} {
			// Compressible, so the compressed mesh really deflates it.
			payload := bytes.Repeat([]byte("mimir map reduce "), size/17+1)[:size]
			recv := func() []byte {
				if err := trs[0].Send(1, 3, payload, 0); err != nil {
					t.Fatal(err)
				}
				m, err := trs[1].Recv(0, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m.Data, payload) {
					t.Fatalf("compress=%v size %d: payload corrupted", compress, size)
				}
				return m.Data
			}
			first := recv()
			trs[1].Recycle(first)
			second := recv()
			if &second[:1][0] != &first[:1][0] {
				t.Errorf("compress=%v size %d: the recycled payload buffer (cap %d) was not reused; the next frame got a new one (cap %d)",
					compress, size, cap(first), cap(second))
			}
			trs[1].Recycle(second)
		}
	}
}
