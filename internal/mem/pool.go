package mem

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Page buffers cycle fast on the shuffle hot path — a Job allocates its send
// set and containers allocate receive pages every round, and all of it is
// dead a round later. Recycling the backing arrays through power-of-two size
// classes removes both the make() zeroing and the GC scan pressure of that
// churn. The arena still accounts every page at its requested size; the pool
// only reuses the underlying memory.
//
// Pooled buffers are NOT zeroed: a recycled page carries arbitrary stale
// bytes past Used. Every consumer in this repo writes a range before reading
// it (containers reserve-then-fill, spill restore copies the full spilled
// prefix, the core send set transmits only written partition prefixes), so
// nothing observes the stale bytes.
const (
	minPageBits = 10 // 1 KiB — smaller buffers are cheap to allocate
	maxPageBits = 26 // 64 MiB — bigger buffers are too rare to hoard
)

var pagePools [maxPageBits - minPageBits + 1]sync.Pool

// getPageBuf returns a slice of length n (cap possibly larger, rounded to
// the size class). Contents are arbitrary.
func getPageBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > 1<<maxPageBits {
		return make([]byte, n)
	}
	c := bits.Len(uint(n-1)) - minPageBits
	if c < 0 {
		c = 0
	}
	if v := pagePools[c].Get(); v != nil {
		return v.([]byte)[:n]
	}
	return make([]byte, n, 1<<(minPageBits+c))
}

// Released pages are recycled as they are, so a reader that kept a key or
// value slice past its callback goes on seeing the right bytes until some
// later page reuses the array — legal under a container's Scan, a
// use-after-free under its Drain, and invisible either way. DebugScribble
// makes such a reader see garbage at once: every buffer released or evicted
// while it is on is overwritten with scribbleByte before it is pooled, so an
// output that depends on a stale alias changes.
var scribble atomic.Bool

const scribbleByte = 0xA5

// DebugScribble turns release scribbling on or off (tests only).
func DebugScribble(on bool) { scribble.Store(on) }

// putPageBuf recycles a buffer obtained from getPageBuf (or anywhere else).
// It is filed by capacity rounded DOWN, preserving the invariant that class
// c holds only buffers with cap >= 1<<(minPageBits+c).
func putPageBuf(b []byte) {
	if scribble.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = scribbleByte
		}
	}
	n := cap(b)
	if n < 1<<minPageBits || n > 1<<maxPageBits {
		return
	}
	c := bits.Len(uint(n)) - 1 - minPageBits
	pagePools[c].Put(b[:0:n])
}
