package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestAbortUnblocksEverythingWithoutLeaks is the abort-robustness regression
// test: a failing rank must unblock peers parked in tagged point-to-point
// receives and in collective rendezvous, and the whole world's goroutines
// must be gone afterwards — an abort that strands even one rank goroutine
// leaks a goroutine per run and eventually a whole iterative job.
func TestAbortUnblocksEverythingWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	const iters = 20
	for iter := 0; iter < iters; iter++ {
		w := testWorld(8)
		rankErrs := make([]error, 8)
		err := w.Run(func(c *Comm) error {
			var err error
			switch c.Rank() {
			case 0:
				// The failing rank: everyone else is (or will be) parked.
				err = fmt.Errorf("rank 0 failed on purpose (iter %d)", iter)
			case 1, 2:
				// Parked in a tagged p2p receive no one will ever match.
				_, _, _, err = c.Recv(5, 1234)
			case 3:
				// Parked in a wildcard receive.
				_, _, _, err = c.Recv(AnySource, AnyTag)
			case 4:
				// Parked in a receive from a rank that is itself parked.
				_, _, _, err = c.Recv(6, 77)
			default:
				// Parked in collective rendezvous (never completes: ranks
				// 0-4 do not join).
				err = c.Barrier()
			}
			rankErrs[c.Rank()] = err
			return err
		})
		if err == nil || errors.Is(err, ErrAborted) {
			t.Fatalf("iter %d: Run returned %v, want the original rank-0 error", iter, err)
		}
		for r := 1; r < 8; r++ {
			if !errors.Is(rankErrs[r], ErrAborted) {
				t.Fatalf("iter %d: rank %d returned %v, want ErrAborted", iter, r, rankErrs[r])
			}
		}
	}

	// All rank goroutines must have exited. Allow the scheduler a moment to
	// reap them and tolerate a little test-framework noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after %d aborted worlds\n%s",
				before, runtime.NumGoroutine(), iters, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbortDuringMixedTraffic aborts while ranks are mid-conversation in a
// mixture of sends, receives, and collectives; no call may hang and every
// surviving rank must see ErrAborted.
func TestAbortDuringMixedTraffic(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		w := testWorld(6)
		err := w.Run(func(c *Comm) error {
			for round := 0; ; round++ {
				if c.Rank() == 0 && round == 3 {
					return fmt.Errorf("deliberate failure")
				}
				if err := c.Send((c.Rank()+1)%c.Size(), round, []byte("ping")); err != nil {
					return err
				}
				if _, _, _, err := c.Recv((c.Rank()+c.Size()-1)%c.Size(), round); err != nil {
					return err
				}
				if _, err := c.AllreduceInt64([]int64{int64(round)}, OpSum); err != nil {
					return err
				}
			}
		})
		if err == nil {
			t.Fatal("expected an error")
		}
	}
}
