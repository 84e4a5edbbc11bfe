package mpi

import (
	"fmt"

	"mimir/internal/simtime"
)

// AlltoallvRequest tracks an in-flight nonblocking all-to-all exchange
// started with Ialltoallv. The data transfer itself happens at post time
// (ranks rendezvous exactly as in the blocking Alltoallv, so send buffers
// may be reused as soon as Ialltoallv returns), but no simulated time is
// charged until Wait: the communication window runs in the background while
// the rank keeps computing, and Wait settles the clock at
// max(compute, comm) for the overlapped window instead of their sum.
//
// On a wall-clock (TCP) transport the exchange blocks for real at post time
// and Wait charges nothing further: whatever overlap the hardware achieved
// is already in the clock, so OverlapSaved reports zero rather than a
// modeled saving.
type AlltoallvRequest struct {
	clock *simtime.Clock
	// postedAt is the rank's simulated time at the Ialltoallv call;
	// completeAt is when the exchange finishes in the background
	// (max participant post time plus the alpha-beta network cost).
	postedAt   float64
	completeAt float64
	recv       [][]byte
	saved      float64
	done       bool
	err        error
}

// Ialltoallv starts a nonblocking variable-sized all-to-all exchange:
// send[i] goes to rank i, and the request's Wait returns recv with recv[i]
// received from rank i. send must have length Size. Like the blocking
// Alltoallv, the returned buffers are copies and send buffers may be reused
// as soon as Ialltoallv returns. All ranks must post matching collectives
// in the same order; the rank blocks (in real time, not simulated time)
// until every rank has posted.
//
// Errors are deferred to Wait so callers can treat post+wait as one
// fallible operation.
func (c *Comm) Ialltoallv(send [][]byte) *AlltoallvRequest {
	req := &AlltoallvRequest{clock: c.Clock()}
	if len(send) != c.world.size {
		req.done = true
		req.err = fmt.Errorf("mpi: Ialltoallv send has %d entries, world size is %d", len(send), c.world.size)
		return req
	}
	var sendBytes int
	for _, b := range send {
		sendBytes += len(b)
	}
	t0 := c.Clock().Now()
	recv, tmax, err := c.ep.Exchange(send, t0)
	if err != nil {
		req.done = true
		req.err = err
		return req
	}
	if c.world.wall {
		// The bytes moved while we blocked just now; the span is Comm time
		// and there is no background window left to overlap.
		c.Clock().ObserveSpan(c.Clock().Now()-t0, simtime.Comm)
		req.postedAt = c.Clock().Now()
		req.completeAt = req.postedAt
	} else {
		var recvBytes int
		for _, b := range recv {
			recvBytes += len(b)
		}
		req.postedAt = t0
		// The exchange cannot start before the last participant posts, and
		// then occupies the network for the usual alpha-beta cost — but in
		// the background, concurrent with whatever this rank computes next.
		req.completeAt = tmax + c.world.net.Alltoallv(c.world.size, sendBytes, recvBytes)
	}
	req.recv = recv
	return req
}

// Wait completes the exchange and returns the received buffers. The rank's
// clock jumps to the background completion time if computation did not
// already cover it; calling Wait again returns the same result without
// charging more time.
func (r *AlltoallvRequest) Wait() ([][]byte, error) {
	if !r.done {
		r.done = true
		if r.err == nil {
			r.saved = r.clock.FinishOverlap(r.postedAt, r.completeAt)
		}
	}
	return r.recv, r.err
}

// OverlapSaved returns the simulated seconds that overlapping saved
// relative to a blocking exchange at the post point. It is zero until Wait
// and zero when no computation overlapped the communication window.
func (r *AlltoallvRequest) OverlapSaved() float64 { return r.saved }
