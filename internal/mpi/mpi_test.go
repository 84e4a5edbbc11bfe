package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mimir/internal/simtime"
)

func testWorld(size int) *World {
	return NewWorld(Config{Size: size, Net: simtime.NetworkModel{Alpha: 1e-6, Beta: 1e9}})
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(size=0) did not panic")
		}
	}()
	NewWorld(Config{Size: 0})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := testWorld(4)
	err := w.Run(func(c *Comm) error {
		// Ranks do different amounts of "work" before the barrier.
		c.Clock().Advance(float64(c.Rank()), simtime.Compute)
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Clock().Now() < 3.0 {
			return fmt.Errorf("rank %d clock %v after barrier, want >= 3", c.Rank(), c.Clock().Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvExchange(t *testing.T) {
	const p = 5
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		send := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			send[dst] = []byte(fmt.Sprintf("from%d-to%d", c.Rank(), dst))
		}
		recv, err := c.Alltoallv(send)
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

func TestAlltoallvNilAndEmpty(t *testing.T) {
	w := testWorld(3)
	err := w.Run(func(c *Comm) error {
		send := make([][]byte, 3) // all nil
		recv, err := c.Alltoallv(send)
		if err != nil {
			return err
		}
		for i, b := range recv {
			if len(b) != 0 {
				return fmt.Errorf("recv[%d] = %q, want empty", i, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvWrongLength(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Alltoallv(make([][]byte, 1))
			if err == nil {
				return errors.New("Alltoallv accepted wrong-length send")
			}
			c.Abort(err)
			return nil
		}
		// Rank 1 would block forever; the abort from rank 0 must release it.
		_, err := c.Alltoallv(make([][]byte, 2))
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("rank 1 got %v, want ErrAborted", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Alltoallv conserves data — the multiset of (src, dst, payload)
// triples sent equals the multiset received, for random payload shapes.
func TestAlltoallvConservationProperty(t *testing.T) {
	f := func(seed uint32) bool {
		p := int(seed%6) + 2
		w := testWorld(p)
		sent := make([][]string, p)
		received := make([][]string, p)
		err := w.Run(func(c *Comm) error {
			send := make([][]byte, p)
			for dst := 0; dst < p; dst++ {
				n := int((seed * uint32(c.Rank()*31+dst*7+1)) % 64)
				payload := bytes.Repeat([]byte{byte(c.Rank()), byte(dst)}, n)
				send[dst] = payload
				sent[c.Rank()] = append(sent[c.Rank()], fmt.Sprintf("%d>%d:%x", c.Rank(), dst, payload))
			}
			recv, err := c.Alltoallv(send)
			if err != nil {
				return err
			}
			for src := 0; src < p; src++ {
				received[c.Rank()] = append(received[c.Rank()], fmt.Sprintf("%d>%d:%x", src, c.Rank(), recv[src]))
			}
			return nil
		})
		if err != nil {
			return false
		}
		var all1, all2 []string
		for r := 0; r < p; r++ {
			all1 = append(all1, sent[r]...)
			all2 = append(all2, received[r]...)
		}
		sort.Strings(all1)
		sort.Strings(all2)
		if len(all1) != len(all2) {
			return false
		}
		for i := range all1 {
			if all1[i] != all2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllreduceInt64(t *testing.T) {
	const p = 6
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		r := int64(c.Rank())
		vals := []int64{r, -r, 10 + r}
		got, err := c.AllreduceInt64(vals, OpSum)
		if err != nil {
			return err
		}
		want := []int64{15, -15, 75} // sum over ranks 0..5
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("sum[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		gotMax, err := c.AllreduceInt64([]int64{r}, OpMax)
		if err != nil {
			return err
		}
		if gotMax[0] != 5 {
			return fmt.Errorf("max = %d, want 5", gotMax[0])
		}
		gotMin, err := c.AllreduceInt64([]int64{r}, OpMin)
		if err != nil {
			return err
		}
		if gotMin[0] != 0 {
			return fmt.Errorf("min = %d, want 0", gotMin[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const p = 4
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		bufs, err := c.Allgatherv([]byte(fmt.Sprintf("rank%d", c.Rank())))
		if err != nil {
			return err
		}
		for i := 0; i < p; i++ {
			if string(bufs[i]) != fmt.Sprintf("rank%d", i) {
				return fmt.Errorf("Allgatherv[%d] = %q", i, bufs[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAndGatherv(t *testing.T) {
	const p = 4
	w := testWorld(p)
	err := w.Run(func(c *Comm) error {
		var payload []byte
		if c.Rank() == 2 {
			payload = []byte("broadcast-me")
		}
		got, err := c.Bcast(payload, 2)
		if err != nil {
			return err
		}
		if string(got) != "broadcast-me" {
			return fmt.Errorf("rank %d Bcast got %q", c.Rank(), got)
		}
		all, err := c.Gatherv([]byte{byte(c.Rank())}, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < p; i++ {
				if len(all[i]) != 1 || all[i][0] != byte(i) {
					return fmt.Errorf("Gatherv[%d] = %v", i, all[i])
				}
			}
		} else if all != nil {
			return fmt.Errorf("rank %d got non-nil Gatherv result", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastBadRoot(t *testing.T) {
	w := testWorld(1)
	err := w.Run(func(c *Comm) error {
		if _, err := c.Bcast(nil, 5); err == nil {
			return errors.New("Bcast accepted out-of-range root")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("hello")); err != nil {
				return err
			}
			if err := c.Send(1, 9, []byte("world")); err != nil {
				return err
			}
			return nil
		}
		// Receive out of order by tag.
		data, src, tag, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if string(data) != "world" || src != 0 || tag != 9 {
			return fmt.Errorf("Recv(0,9) = %q src=%d tag=%d", data, src, tag)
		}
		data, _, _, err = c.Recv(AnySource, AnyTag)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("Recv(any,any) = %q, want hello", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvClockCausality(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Clock().Advance(5, simtime.Compute)
			return c.Send(1, 0, []byte("x"))
		}
		_, _, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if c.Clock().Now() < 5 {
			return fmt.Errorf("receiver clock %v, want >= 5 (message causality)", c.Clock().Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := testWorld(4)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		// Other ranks block in a barrier; the abort must release them.
		err := c.Barrier()
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("rank %d barrier returned %v, want ErrAborted", c.Rank(), err)
		}
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the original boom error", err)
	}
}

func TestAbortReleasesRecv(t *testing.T) {
	w := testWorld(2)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return boom
		}
		_, _, _, err := c.Recv(0, 0)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Recv returned %v, want ErrAborted", err)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want boom", err)
	}
}

func TestCollectivesAfterAbortFail(t *testing.T) {
	w := testWorld(1)
	sentinel := errors.New("sentinel")
	_ = w.Run(func(c *Comm) error {
		c.Abort(sentinel)
		if err := c.Barrier(); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Barrier after abort: %v", err)
		}
		if _, err := c.Alltoallv(make([][]byte, 1)); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Alltoallv after abort: %v", err)
		}
		return nil
	})
}

func TestManySequentialCollectives(t *testing.T) {
	// Stress the generation-counted rendezvous reuse.
	const p = 8
	w := testWorld(p)
	var rounds int64
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 200; i++ {
			v, err := c.AllreduceInt64([]int64{1}, OpSum)
			if err != nil {
				return err
			}
			if v[0] != p {
				return fmt.Errorf("round %d: sum = %d, want %d", i, v[0], p)
			}
			atomic.AddInt64(&rounds, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 200*p {
		t.Fatalf("completed %d rank-rounds, want %d", rounds, 200*p)
	}
}

func TestMaxTime(t *testing.T) {
	w := testWorld(3)
	err := w.Run(func(c *Comm) error {
		c.Clock().Advance(float64(c.Rank()+1), simtime.Compute)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MaxTime(); got != 3 {
		t.Fatalf("MaxTime = %v, want 3", got)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpSum: "sum", OpMax: "max", OpMin: "min", Op(9): "Op(9)"} {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(op), got, want)
		}
	}
}
