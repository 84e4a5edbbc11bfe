package faultinject

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mimir/internal/transport"
)

// Stats counts the faults an Injector actually fired.
type Stats struct {
	Resets, Corruptions, Partials, Delays, Kills uint64
}

// Injector is one process's view of a Spec: it acts out the scheduled
// events whose rank matches (or target all ranks), plus the seeded chaos.
// One Injector serves all of the process's links, and a launcher that keeps
// it across mesh rebuilds keeps one-shot events one-shot even though the
// underlying connections are replaced.
type Injector struct {
	spec Spec
	rank int

	mu    sync.Mutex
	fired map[[2]int]bool // {event index, peer} → already fired
	wraps map[int]int     // peer → times wrapped (seeds successive conns)
	stats Stats
}

// New builds rank's injector for spec.
func New(spec Spec, rank int) *Injector {
	return &Injector{
		spec:  spec.withDefaults(),
		rank:  rank,
		fired: make(map[[2]int]bool),
		wraps: make(map[int]int),
	}
}

// Spec returns the schedule this injector acts out.
func (in *Injector) Spec() Spec { return in.spec }

// Stats returns the faults fired so far.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// WrapConn is the transport.TCPConfig.WrapConn hook: it wraps one mesh
// connection to the given peer with the fault schedule.
func (in *Injector) WrapConn(peer int, c net.Conn) net.Conn {
	in.mu.Lock()
	wrap := in.wraps[peer]
	in.wraps[peer]++
	in.mu.Unlock()
	rng := splitmix(in.spec.Seed ^ 0x66617565) // "faue"
	rng = splitmix(rng + uint64(in.rank))
	rng = splitmix(rng + uint64(peer)<<20 + uint64(wrap))
	return &faultConn{Conn: c, in: in, peer: peer, rng: rng, corruptAt: -1}
}

// nextFault consumes the schedule for one outgoing data frame on the link
// to peer: frame is the link's 0-based data-frame index (data frames only,
// so control frames do not shift the schedule). It returns the fault to
// apply, if any.
func (in *Injector) nextFault(peer int, frame uint64, rng *uint64) (Kind, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, ev := range in.spec.Events {
		if ev.Rank != AllRanks && ev.Rank != in.rank {
			continue
		}
		if ev.Frame != frame || in.fired[[2]int{i, peer}] {
			continue
		}
		in.fired[[2]int{i, peer}] = true
		in.count(ev.Kind)
		return ev.Kind, true
	}
	if in.spec.Chaos > 0 {
		*rng = splitmix(*rng)
		if float64(*rng>>11)/(1<<53) < in.spec.Chaos {
			*rng = splitmix(*rng)
			kind := Kind(*rng % 4)
			in.count(kind)
			return kind, true
		}
	}
	return 0, false
}

func (in *Injector) count(k Kind) {
	switch k {
	case Reset:
		in.stats.Resets++
	case Corrupt:
		in.stats.Corruptions++
	case Partial:
		in.stats.Partials++
	case Delay:
		in.stats.Delays++
	}
}

// errInjected wraps every failure the injector manufactures, so transport
// logs distinguish injected faults from real ones.
func errInjected(kind Kind, peer int) error {
	return fmt.Errorf("faultinject: injected %s on link to rank %d", kind, peer)
}

// faultConn wraps one mesh connection. The transport serializes writes per
// connection (and calls BeginFrame from the writing goroutine), so the
// frame-tracking fields need no locking; reads pass straight through —
// write-side corruption is observed by the receiving peer's CRC check.
type faultConn struct {
	net.Conn
	in   *Injector
	peer int
	rng  uint64

	frames    uint64 // data frames begun on this connection's link
	frameOff  int    // bytes of the current frame written so far
	corruptAt int    // frame offset of the byte to flip, -1 if none
	partialAt int    // frame offset after which to cut the connection, -1 if none
	closed    bool
}

var _ transport.FrameMarker = (*faultConn)(nil)

// BeginFrame consumes the schedule for the frame about to be written.
// Scheduled events and chaos fire only on data frames, so the schedule is
// independent of control traffic (aborts, byes).
func (c *faultConn) BeginFrame(op byte, size int) error {
	c.frameOff = 0
	c.corruptAt = -1
	c.partialAt = -1
	data := op == transport.OpP2P || op == transport.OpExchange
	frame := c.frames
	if data {
		// The schedule indexes data frames per connection (indices restart
		// on a rebuilt mesh); the injector's one-shot map keeps an event
		// from firing twice on the same link either way.
		c.frames++
	}
	if !data {
		return nil
	}
	kind, ok := c.in.nextFault(c.peer, frame, &c.rng)
	if !ok {
		return nil
	}
	switch kind {
	case Reset:
		c.closed = true
		c.Conn.Close()
		return errInjected(Reset, c.peer)
	case Delay:
		time.Sleep(c.in.spec.Delay)
	case Corrupt:
		// Never the 4-byte length prefix: the CRC guarantees detection of
		// any single flipped byte after it, but a corrupted length desyncs
		// the stream in ways only the read deadline would catch.
		total := 4 + size
		if total > 5 {
			c.rng = splitmix(c.rng)
			c.corruptAt = 4 + int(c.rng%uint64(total-4))
		}
	case Partial:
		c.rng = splitmix(c.rng)
		c.partialAt = 1 + int(c.rng%uint64((4+size+1)/2))
	}
	return nil
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.closed {
		return 0, errInjected(Reset, c.peer)
	}
	if c.partialAt >= 0 && c.frameOff+len(b) > c.partialAt {
		keep := c.partialAt - c.frameOff
		if keep > 0 {
			c.Conn.Write(b[:keep])
		}
		c.closed = true
		c.Conn.Close()
		return keep, errInjected(Partial, c.peer)
	}
	if c.corruptAt >= 0 && c.corruptAt >= c.frameOff && c.corruptAt < c.frameOff+len(b) {
		mut := append([]byte(nil), b...)
		mut[c.corruptAt-c.frameOff] ^= 0x5A
		c.corruptAt = -1
		n, err := c.Conn.Write(mut)
		c.frameOff += n
		return n, err
	}
	n, err := c.Conn.Write(b)
	c.frameOff += n
	return n, err
}

// splitmix is the splitmix64 step: deterministic, seedable, stdlib-free.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
