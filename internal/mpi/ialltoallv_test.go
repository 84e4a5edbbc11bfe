package mpi

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mimir/internal/simtime"
)

func TestIalltoallvExchange(t *testing.T) {
	const p = 5
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		send := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			send[dst] = []byte(fmt.Sprintf("from%d-to%d", c.Rank(), dst))
		}
		req := c.Ialltoallv(send)
		// Send buffers may be reused as soon as the post returns.
		for dst := range send {
			for i := range send[dst] {
				send[dst][i] = 'x'
			}
		}
		recv, err := req.Wait()
		if err != nil {
			return err
		}
		for src := 0; src < p; src++ {
			want := fmt.Sprintf("from%d-to%d", src, c.Rank())
			if string(recv[src]) != want {
				return fmt.Errorf("rank %d: recv[%d] = %q, want %q", c.Rank(), src, recv[src], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIalltoallvMatchesBlockingWhenNoCompute(t *testing.T) {
	// With no computation between post and wait, the nonblocking exchange
	// must charge exactly what the blocking one does.
	const p = 4
	payload := func() [][]byte {
		send := make([][]byte, p)
		for i := range send {
			send[i] = []byte("0123456789")
		}
		return send
	}
	var blocking, nonblocking float64
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		if _, err := c.Alltoallv(payload()); err != nil {
			return err
		}
		if c.Rank() == 0 {
			blocking = c.Clock().Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w = testWorld(p)
	err = w.Run(func(c *Comm) error {
		req := c.Ialltoallv(payload())
		if _, err := req.Wait(); err != nil {
			return err
		}
		if req.OverlapSaved() != 0 {
			return fmt.Errorf("rank %d saved %v with no compute, want 0", c.Rank(), req.OverlapSaved())
		}
		if c.Rank() == 0 {
			nonblocking = c.Clock().Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(blocking-nonblocking) > 1e-12 {
		t.Errorf("idle Ialltoallv time %v != blocking Alltoallv time %v", nonblocking, blocking)
	}
}

func TestIalltoallvOverlapsCompute(t *testing.T) {
	// Compute between post and wait longer than the comm window: the wait
	// is free and the full window is saved.
	const p = 4
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		send := make([][]byte, p)
		for i := range send {
			send[i] = make([]byte, 1000)
		}
		req := c.Ialltoallv(send)
		c.Clock().Advance(1.0, simtime.Compute) // far longer than the net cost
		before := c.Clock().Now()
		if _, err := req.Wait(); err != nil {
			return err
		}
		if c.Clock().Now() != before {
			return fmt.Errorf("overlapped Wait advanced the clock %v -> %v", before, c.Clock().Now())
		}
		if req.OverlapSaved() <= 0 {
			return errors.New("no overlap saving recorded")
		}
		// Wait is idempotent: a second call charges nothing more.
		if _, err := req.Wait(); err != nil {
			return err
		}
		if c.Clock().Now() != before {
			return errors.New("second Wait advanced the clock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIalltoallvWrongLength(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			req := c.Ialltoallv(make([][]byte, 1))
			if _, err := req.Wait(); err == nil {
				return errors.New("Ialltoallv accepted wrong-length send")
			} else {
				c.Abort(err)
			}
			return nil
		}
		// Rank 1 would block forever; the abort from rank 0 must release it.
		req := c.Ialltoallv(make([][]byte, 2))
		if _, err := req.Wait(); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("rank 1 got %v, want ErrAborted", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
