package transport

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size-classed buffer pool for both frame paths. Every frame-sized buffer
// in steady state comes from here and returns here: replay entries and
// compression scratch on the send side; received payloads and inflated
// payloads on the receive side, which the consumer hands back via Recycle.
// A frame therefore costs a handful of fixed-size heap objects (pool
// boxing, the Frame header, queue nodes), never a fresh frame-sized copy.
//
// Lifecycle rules:
//   - getBuf(n) returns a zero-length slice with capacity ≥ n. The caller
//     owns it exclusively until putBuf.
//   - putBuf(b) recycles by capacity class, rounding the capacity down.
//     Buffers whose append outgrew their class land in the next class up;
//     off-range capacities are dropped for the GC. Rounding down means a
//     buffer must come back whole: a subslice that starts past its first
//     byte has lost capacity and is filed one class too low, where it never
//     again serves the class it was drawn from — so every getBuf of that
//     class allocates afresh. This is why readFramePooled reads a payload
//     into a pooled buffer of its own instead of delivering a slice of a
//     pooled header+payload body.
//   - A buffer handed to the replay ledger is owned by the ledger and only
//     recycled by pruneReplayLocked — and never while a reconnect is
//     replaying a snapshot of the ledger (tcpPeer.replaying), since the
//     snapshot aliases the same backing arrays.
const (
	minBufBits = 6  // 64 B
	maxBufBits = 22 // 4 MiB; larger buffers are not pooled
)

var bufPools [maxBufBits - minBufBits + 1]sync.Pool

// Pool misuse detection. The lifecycle rules above are enforced by
// convention on the hot path (a tracking map per get/put would defeat the
// point of pooling), but misuse is catastrophic and silent: recycling one
// buffer twice hands the same backing array to two owners, and the
// corruption surfaces far from the bug. DebugPool turns on a tracker that
// panics at the misuse site instead — putBuf of a buffer the pool already
// holds, or of one it never issued and cannot account for. Tests covering
// the pooled-buffer lifecycle (double Recycle, reconnect-replay aliasing)
// enable it; production leaves the single atomic load per call.
var (
	poolDebug       atomic.Bool
	poolDebugMu     sync.Mutex
	poolDebugPooled map[*byte]bool // backing array → currently held by the pool
)

// DebugPool enables or disables pool misuse tracking (tests only). Enabling
// resets the tracker; buffers issued before enabling are treated as unknown
// and accepted back without complaint (their backing arrays are simply
// adopted).
func DebugPool(on bool) {
	poolDebugMu.Lock()
	poolDebugPooled = make(map[*byte]bool)
	poolDebugMu.Unlock()
	poolDebug.Store(on)
}

// DebugPoolHeld reports how many distinct tracked buffers the pool currently
// holds (tests only).
func DebugPoolHeld() int {
	poolDebugMu.Lock()
	defer poolDebugMu.Unlock()
	n := 0
	for _, held := range poolDebugPooled {
		if held {
			n++
		}
	}
	return n
}

// bufKey identifies a buffer by its backing array. Capacity is always
// non-zero for pooled buffers, so the first element of the full-capacity
// slice is a stable identity even for zero-length handles.
func bufKey(b []byte) *byte { return &b[:1][0] }

func debugTrackGet(b []byte) {
	if cap(b) == 0 {
		return
	}
	poolDebugMu.Lock()
	poolDebugPooled[bufKey(b)] = false
	poolDebugMu.Unlock()
}

func debugTrackPut(b []byte) {
	poolDebugMu.Lock()
	defer poolDebugMu.Unlock()
	k := bufKey(b)
	if poolDebugPooled[k] {
		panic(fmt.Sprintf("transport: buffer recycled twice (cap %d): already held by the pool", cap(b)))
	}
	poolDebugPooled[k] = true
}

// bufClass returns the pool index whose buffers have capacity ≥ n, or -1
// when n is above the poolable range.
func bufClass(n int) int {
	if n > 1<<maxBufBits {
		return -1
	}
	c := bits.Len(uint(n-1)) - minBufBits
	if n <= 1<<minBufBits {
		c = 0
	}
	return c
}

func getBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	var b []byte
	if v := bufPools[c].Get(); v != nil {
		b = v.([]byte)[:0]
	} else {
		b = make([]byte, 0, 1<<(minBufBits+uint(c)))
	}
	if poolDebug.Load() {
		debugTrackGet(b)
	}
	return b
}

func putBuf(b []byte) {
	n := cap(b)
	if n < 1<<minBufBits || n > 1<<maxBufBits {
		return
	}
	if poolDebug.Load() {
		debugTrackPut(b)
	}
	// File by the class the capacity fully covers, so a later getBuf for
	// that class is guaranteed to fit.
	c := bits.Len(uint(n)) - 1 - minBufBits
	bufPools[c].Put(b[:0:n])
}
