package mpi

import (
	"encoding/binary"
	"fmt"
)

// exchange runs one collective byte exchange on this rank's endpoint and
// settles the clock: a simulated clock synchronizes to the slowest
// participant and charges simCost(recv), a wall clock records the measured
// blocking span. send[i] is delivered to rank i (nil send contributes
// nothing, a pure barrier); the returned buffers are owned by the caller.
func (c *Comm) exchange(send [][]byte, simCost func(recv [][]byte) float64) ([][]byte, error) {
	t0 := c.Clock().Now()
	recv, tmax, err := c.ep.Exchange(send, t0)
	if err != nil {
		return nil, err
	}
	var cost float64
	if !c.world.wall {
		cost = simCost(recv)
	}
	c.settle(t0, tmax, cost)
	return recv, nil
}

// fanOut builds a send array delivering the same buffer to every rank.
func (c *Comm) fanOut(b []byte) [][]byte {
	send := make([][]byte, c.world.size)
	for i := range send {
		send[i] = b
	}
	return send
}

// Barrier blocks until all ranks have entered it and synchronizes simulated
// clocks to the latest participant plus the barrier cost.
func (c *Comm) Barrier() error {
	_, err := c.exchange(nil, func([][]byte) float64 {
		return c.world.net.Barrier(c.world.size)
	})
	return err
}

// Alltoallv exchanges variable-sized byte buffers with every rank: send[i]
// goes to rank i, and the returned slice holds recv[i] received from rank i.
// send must have length Size. The returned buffers are copies owned by the
// caller, so send buffers may be reused immediately. A nil entry is
// delivered as an empty buffer.
func (c *Comm) Alltoallv(send [][]byte) ([][]byte, error) {
	if len(send) != c.world.size {
		return nil, fmt.Errorf("mpi: Alltoallv send has %d entries, world size is %d", len(send), c.world.size)
	}
	var sendBytes int
	for _, b := range send {
		sendBytes += len(b)
	}
	return c.exchange(send, func(recv [][]byte) float64 {
		var recvBytes int
		for _, b := range recv {
			recvBytes += len(b)
		}
		return c.world.net.Alltoallv(c.world.size, sendBytes, recvBytes)
	})
}

// Op identifies a reduction operator.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

func (o Op) apply(a, b int64) int64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	}
	panic("mpi: unknown op")
}

// encodeInt64s packs a vector as big-endian bytes for the wire.
func encodeInt64s(vals []int64) []byte {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func decodeInt64s(b []byte) []int64 {
	vals := make([]int64, len(b)/8)
	for i := range vals {
		vals[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	return vals
}

// AllreduceInt64 element-wise reduces vals across all ranks with op and
// returns the reduced vector on every rank. All ranks must pass vectors of
// the same length.
func (c *Comm) AllreduceInt64(vals []int64, op Op) ([]int64, error) {
	recv, err := c.exchange(c.fanOut(encodeInt64s(vals)), func([][]byte) float64 {
		return c.world.net.Reduction(c.world.size, 8*len(vals))
	})
	if err != nil {
		return nil, err
	}
	out := append([]int64(nil), vals...)
	for src, b := range recv {
		if src == c.rank {
			continue
		}
		theirs := decodeInt64s(b)
		if len(theirs) != len(out) {
			panic(fmt.Sprintf("mpi: Allreduce length mismatch: rank %d has %d, rank %d has %d",
				c.rank, len(out), src, len(theirs)))
		}
		for i, v := range theirs {
			out[i] = op.apply(out[i], v)
		}
	}
	return out, nil
}

// Allgatherv gathers a byte buffer from every rank; result[i] is a copy of
// rank i's buffer, identical on all ranks.
func (c *Comm) Allgatherv(b []byte) ([][]byte, error) {
	return c.exchange(c.fanOut(b), func(recv [][]byte) float64 {
		var total int
		for _, r := range recv {
			total += len(r)
		}
		return c.world.net.Reduction(c.world.size, total)
	})
}

// Bcast broadcasts root's buffer to all ranks; every rank (including root)
// receives a copy. Non-root ranks pass their own b, which is ignored.
func (c *Comm) Bcast(b []byte, root int) ([]byte, error) {
	if root < 0 || root >= c.world.size {
		return nil, fmt.Errorf("mpi: Bcast root %d out of range", root)
	}
	var send [][]byte
	if c.rank == root {
		send = c.fanOut(b)
	}
	recv, err := c.exchange(send, func(recv [][]byte) float64 {
		return c.world.net.Reduction(c.world.size, len(recv[root]))
	})
	if err != nil {
		return nil, err
	}
	out := recv[root]
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

// Gatherv gathers every rank's buffer at root. On root the result has one
// copied buffer per rank; on other ranks it is nil.
func (c *Comm) Gatherv(b []byte, root int) ([][]byte, error) {
	if root < 0 || root >= c.world.size {
		return nil, fmt.Errorf("mpi: Gatherv root %d out of range", root)
	}
	send := make([][]byte, c.world.size)
	if b == nil {
		b = []byte{}
	}
	send[root] = b
	recv, err := c.exchange(send, func(recv [][]byte) float64 {
		if c.rank != root {
			// Non-root ranks receive nothing; they only pay the latency term.
			return c.world.net.Reduction(c.world.size, 0)
		}
		var total int
		for _, r := range recv {
			total += len(r)
		}
		return c.world.net.Reduction(c.world.size, total)
	})
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return recv, nil
}
