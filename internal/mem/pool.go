package mem

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The process has one buffer pool. Page buffers cycle fast on the shuffle
// hot path — a Job allocates its send set and containers allocate pages
// every round, and all of it is dead a round later — and so do the TCP
// transport's frame, replay and payload buffers. Recycling the backing
// arrays through power-of-two size classes removes both the make() zeroing
// and the GC scan pressure of that churn. The arena still accounts every
// page at its requested size; the pool only reuses the underlying memory.
//
// Lifecycle rules:
//   - GetBuf(n) returns a slice of length n whose capacity is n rounded up
//     to its class. Contents are arbitrary: every consumer writes a range
//     before reading it. The caller owns the buffer until PutBuf.
//   - PutBuf(b) files b by capacity rounded DOWN, so class c only ever holds
//     buffers with cap >= 1<<(minBufBits+c). A buffer must come back whole:
//     a subslice that starts past its first byte has lost capacity and is
//     filed a class too low, where it never again serves the class it was
//     drawn from. Off-range capacities are dropped for the GC.
const (
	minBufBits = 6  // 64 B
	maxBufBits = 26 // 64 MiB; bigger buffers are too rare to hoard
)

var bufPools [maxBufBits - minBufBits + 1]sync.Pool

// GetBuf returns a pooled buffer of length n (see the lifecycle rules).
func GetBuf(n int) []byte {
	if n > 1<<maxBufBits {
		return make([]byte, n)
	}
	c := 0
	if n > 1<<minBufBits {
		c = bits.Len(uint(n-1)) - minBufBits
	}
	var b []byte
	if v := bufPools[c].Get(); v != nil {
		b = v.([]byte)[:n]
	} else {
		b = make([]byte, n, 1<<(minBufBits+c))
	}
	if debug.Load() {
		debugTrack(b, false)
	}
	return b
}

// PutBuf recycles a buffer obtained from GetBuf (or anywhere else).
func PutBuf(b []byte) {
	n := cap(b)
	if n < 1<<minBufBits || n > 1<<maxBufBits {
		return
	}
	if debug.Load() {
		debugTrack(b, true)
		b = b[:n]
		for i := range b {
			b[i] = scribbleByte
		}
	}
	bufPools[bits.Len(uint(n))-1-minBufBits].Put(b[:0:n])
}

// Pool misuse is silent by default. Released buffers are recycled as they
// are, so a reader that kept a slice past its release goes on seeing the
// right bytes until some later owner reuses the array — legal under a
// container's Scan, a use-after-free under its Drain, and invisible either
// way. And a buffer recycled twice is handed to two owners, with the
// corruption surfacing far from the bug. DebugPool turns both into loud
// failures: every buffer put back is overwritten with scribbleByte, so an
// output that depends on a stale alias changes, and a tracker panics at the
// PutBuf of a buffer the pool already holds. Production pays one atomic
// load per call.
var (
	debug       atomic.Bool
	debugMu     sync.Mutex
	debugPooled map[*byte]bool // backing array → currently held by the pool
)

const scribbleByte = 0xA5

// DebugPool turns release scribbling and double-put tracking on or off
// (tests only). Either way the tracker starts empty: buffers issued before
// enabling are unknown and accepted back without complaint.
func DebugPool(on bool) {
	debugMu.Lock()
	debugPooled = nil
	if on {
		debugPooled = make(map[*byte]bool)
	}
	debugMu.Unlock()
	debug.Store(on)
}

// DebugPoolHeld reports how many distinct tracked buffers the pool currently
// holds (tests only).
func DebugPoolHeld() int {
	debugMu.Lock()
	defer debugMu.Unlock()
	n := 0
	for _, held := range debugPooled {
		if held {
			n++
		}
	}
	return n
}

// debugTrack records b (identified by its backing array) entering or
// leaving the pool, panicking on a put of a buffer the pool already holds.
func debugTrack(b []byte, put bool) {
	if cap(b) == 0 {
		return
	}
	k := &b[:1][0]
	debugMu.Lock()
	defer debugMu.Unlock()
	if debugPooled == nil {
		return // switched off concurrently
	}
	if put && debugPooled[k] {
		panic(fmt.Sprintf("mem: buffer recycled twice (cap %d): already held by the pool", cap(b)))
	}
	debugPooled[k] = put
}
