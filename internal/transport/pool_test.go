package transport

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

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
