package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestSingleRankCollectives(t *testing.T) {
	// Degenerate world of one rank: every collective must still work.
	w := testWorld(1)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 || c.Size() != 1 {
			return errors.New("Rank/Size mismatch")
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		recv, err := c.Alltoallv([][]byte{[]byte("self")})
		if err != nil {
			return err
		}
		if string(recv[0]) != "self" {
			return fmt.Errorf("self exchange = %q", recv[0])
		}
		sum, err := c.AllreduceInt64([]int64{7}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 7 {
			return fmt.Errorf("self allreduce = %d", sum[0])
		}
		b, err := c.Bcast([]byte("x"), 0)
		if err != nil || string(b) != "x" {
			return fmt.Errorf("self bcast = %q, %v", b, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendRecv(t *testing.T) {
	w := testWorld(1)
	err := w.Run(func(c *Comm) error {
		if err := c.Send(0, 1, []byte("loop")); err != nil {
			return err
		}
		data, src, tag, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(data) != "loop" || src != 0 || tag != 1 {
			return fmt.Errorf("self recv = %q src=%d tag=%d", data, src, tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedP2PAndCollectives(t *testing.T) {
	// Point-to-point traffic in flight must not disturb collectives.
	const p = 4
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % p
		for i := 0; i < 20; i++ {
			if err := c.Send(next, i, []byte{byte(i)}); err != nil {
				return err
			}
			sum, err := c.AllreduceInt64([]int64{1}, OpSum)
			if err != nil {
				return err
			}
			if sum[0] != p {
				return fmt.Errorf("round %d: sum=%d", i, sum[0])
			}
			data, _, tag, err := c.Recv(AnySource, i)
			if err != nil {
				return err
			}
			if tag != i || data[0] != byte(i) {
				return fmt.Errorf("round %d: tag=%d data=%v", i, tag, data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksBarrierStorm(t *testing.T) {
	// A wide world exercising the generation barrier under contention.
	const p = 64
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 50; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvLargePayloads(t *testing.T) {
	const p = 3
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		send := make([][]byte, p)
		for dst := range send {
			send[dst] = make([]byte, 1<<20)
			for i := range send[dst] {
				send[dst][i] = byte(c.Rank()*31 + dst*7 + i)
			}
		}
		recv, err := c.Alltoallv(send)
		if err != nil {
			return err
		}
		for src := range recv {
			if len(recv[src]) != 1<<20 {
				return fmt.Errorf("recv[%d] len %d", src, len(recv[src]))
			}
			// Spot check contents.
			for _, i := range []int{0, 12345, 1<<20 - 1} {
				want := byte(src*31 + c.Rank()*7 + i)
				if recv[src][i] != want {
					return fmt.Errorf("recv[%d][%d] = %d, want %d", src, i, recv[src][i], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBufferIsolation(t *testing.T) {
	// Buffers returned by Alltoallv must be private copies: mutating a
	// received buffer must not affect other ranks or later rounds.
	const p = 2
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		mine := []byte{1, 2, 3}
		for round := 0; round < 3; round++ {
			recv, err := c.Alltoallv([][]byte{mine, mine})
			if err != nil {
				return err
			}
			for i := range recv {
				for j := range recv[i] {
					recv[i][j] = 0xEE // scribble
				}
			}
			if mine[0] != 1 || mine[1] != 2 || mine[2] != 3 {
				return errors.New("send buffer corrupted by receiver scribbling")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	w := testWorld(3)
	err := w.Run(func(c *Comm) error {
		prev := c.Clock().Now()
		ops := []func() error{
			func() error { return c.Barrier() },
			func() error { _, err := c.AllreduceInt64([]int64{1}, OpMax); return err },
			func() error { _, err := c.Alltoallv(make([][]byte, 3)); return err },
			func() error { _, err := c.Allgatherv([]byte("x")); return err },
		}
		for i, op := range ops {
			if err := op(); err != nil {
				return err
			}
			now := c.Clock().Now()
			if now < prev {
				return fmt.Errorf("op %d moved clock backward: %v -> %v", i, prev, now)
			}
			prev = now
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortAfterCompletedCollective(t *testing.T) {
	// Regression: if a rank completes the last arrival of a collective and
	// aborts immediately afterwards, the other participants' already-
	// completed collective must still return success — only operations that
	// can no longer complete may report ErrAborted.
	for iter := 0; iter < 200; iter++ {
		w := testWorld(3)
		boom := errors.New("boom")
		err := w.Run(func(c *Comm) error {
			if _, err := c.AllreduceInt64([]int64{1}, OpSum); err != nil {
				return fmt.Errorf("completed collective reported %w", err)
			}
			if c.Rank() == 2 {
				return boom // abort right after the collective
			}
			// Ranks 0 and 1 do only local work afterwards.
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("iter %d: err = %v, want only the injected abort", iter, err)
		}
	}
}
