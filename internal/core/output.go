package core

import (
	"fmt"

	"mimir/internal/kvbuf"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

// Output is the result of a Mimir job on one rank: a KV container holding
// the rank's share of the output, plus per-rank statistics. Free it when
// done, or feed it to the next stage of an iterative job with AsInput.
type Output struct {
	KVC   *kvbuf.KVC
	Stats Stats
}

// Free releases the output's memory back to the node arena.
func (o *Output) Free() {
	if o != nil && o.KVC != nil {
		o.KVC.Free()
	}
}

// Scan iterates the output KVs in insertion order.
func (o *Output) Scan(fn func(k, v []byte) error) error {
	return o.KVC.Scan(fn)
}

// Drain iterates the output KVs in insertion order like Scan, but frees each
// page as soon as its KVs are consumed, so a single-pass reader never holds
// the output and what it builds from it at once. The output is empty
// afterwards, even on error. The slices are valid only during the call.
func (o *Output) Drain(fn func(k, v []byte) error) error { return o.KVC.Drain(fn) }

// NumKV returns the number of output KVs on this rank.
func (o *Output) NumKV() int64 { return o.KVC.NumKV() }

// AsInput adapts the output for use as the input of a subsequent MapReduce
// stage (the paper's "KVs from previous MapReduce operations for multistage
// jobs or iterative MapReduce jobs"). The output's memory is released page
// by page as the next stage's map consumes it.
func (o *Output) AsInput() Input {
	return func(emit func(rec Record) error) error {
		return o.Drain(func(k, v []byte) error {
			return emit(Record{Key: k, Val: v})
		})
	}
}

// Persist writes this rank's output KVs to the parallel file system as
// text lines "key<TAB>value-bytes-as-written\n" (keys and values are
// written raw; binary values should be formatted by a prior reduce). The
// write time is charged to clock; the paper's execution time runs "from
// reading input data to getting the final results".
func (o *Output) Persist(fs *pfs.FS, clock *simtime.Clock, name string) error {
	buf := make([]byte, 0, 64<<10)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := fs.Append(clock, name, buf)
		buf = buf[:0]
		return err
	}
	err := o.KVC.Scan(func(k, v []byte) error {
		buf = append(buf, k...)
		buf = append(buf, '\t')
		buf = append(buf, v...)
		buf = append(buf, '\n')
		if len(buf) >= 64<<10 {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return fmt.Errorf("core: persisting output: %w", err)
	}
	return nil
}

// SliceInput feeds a fixed set of records — used by tests and the in-situ
// example, where data arrives from a producer rather than the file system.
func SliceInput(recs []Record) Input {
	return func(emit func(rec Record) error) error {
		for _, r := range recs {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}
}
