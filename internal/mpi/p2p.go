package mpi

import (
	"mimir/internal/simtime"
	"mimir/internal/transport"
)

// AnySource and AnyTag are wildcards for Recv, mirroring MPI_ANY_SOURCE and
// MPI_ANY_TAG.
const (
	AnySource = transport.AnySource
	AnyTag    = transport.AnyTag
)

// Send delivers a copy of data to rank dst with the given tag. Send is
// buffered (it does not wait for a matching Recv), like an eager-protocol
// MPI_Send.
func (c *Comm) Send(dst, tag int, data []byte) error {
	ck := c.Clock()
	if c.world.wall {
		t0 := ck.Now()
		if err := c.ep.Send(dst, tag, data, t0); err != nil {
			return err
		}
		ck.ObserveSpan(ck.Now()-t0, simtime.Comm)
	} else {
		ck.Advance(c.world.net.PointToPoint(len(data)), simtime.Comm)
		if err := c.ep.Send(dst, tag, data, ck.Now()); err != nil {
			return err
		}
	}
	return nil
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload together with the actual source and tag. Use AnySource / AnyTag as
// wildcards. The receiver's simulated clock is advanced to at least the
// message's network arrival time; a wall clock records the blocking span as
// Comm time.
func (c *Comm) Recv(src, tag int) (data []byte, actualSrc, actualTag int, err error) {
	ck := c.Clock()
	t0 := ck.Now()
	m, err := c.ep.Recv(src, tag)
	if err != nil {
		return nil, 0, 0, err
	}
	if c.world.wall {
		ck.ObserveSpan(ck.Now()-t0, simtime.Comm)
	} else {
		ck.SyncTo(m.Time)
	}
	return m.Data, m.Src, m.Tag, nil
}
