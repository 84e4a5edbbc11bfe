// Package mrmpi reimplements the MR-MPI baseline (Plimpton & Devine,
// "MapReduce in MPI for Large-Scale Graph Algorithms") with the memory
// model the paper critiques: statically allocated fixed-size pages per
// phase (map/aggregate/convert/reduce need 1/7/4/3 pages), explicit
// aggregate and convert calls with global synchronization, and out-of-core
// spillover of full pages to the global parallel file system — the behavior
// that produces the Figure 1 performance cliff.
package mrmpi

import (
	"fmt"

	"mimir/internal/mem"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

// Mode selects MR-MPI's out-of-core behavior (the paper's "three out-of-core
// writing settings").
type Mode int

const (
	// SpillWhenNeeded writes intermediate data to disk only when it exceeds
	// a single page (MR-MPI setting 2, the usual configuration).
	SpillWhenNeeded Mode = iota
	// SpillAlways writes all intermediate data to disk at the end of each
	// phase even if it fits in memory (MR-MPI setting 1).
	SpillAlways
	// ErrorIfExceeds reports an error and terminates if intermediate data is
	// larger than a single page (MR-MPI setting 3).
	ErrorIfExceeds
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SpillWhenNeeded:
		return "spill-when-needed"
	case SpillAlways:
		return "spill-always"
	case ErrorIfExceeds:
		return "error-if-exceeds"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ErrPageOverflow is returned in ErrorIfExceeds mode when intermediate data
// exceeds a single page.
var ErrPageOverflow = fmt.Errorf("mrmpi: intermediate data exceeds a single page")

// store is MR-MPI's unit of intermediate data: exactly one in-memory page
// plus an optional spill file on the parallel file system holding the pages
// that did not fit. Records never straddle the page/spill boundary.
type store struct {
	arena    *mem.Arena
	pageSize int
	mode     Mode
	fs       *pfs.FS
	clock    *simtime.Clock
	name     string

	page     *mem.Page
	spilled  int64   // bytes in the spill file
	chunks   []int64 // length of each flushed chunk, in file order
	nrec     int64
	totBytes int64
}

func newStore(arena *mem.Arena, pageSize int, mode Mode, fs *pfs.FS, clock *simtime.Clock, name string) (*store, error) {
	p, err := arena.NewPage(pageSize)
	if err != nil {
		return nil, fmt.Errorf("mrmpi: allocating %s page: %w", name, err)
	}
	return &store{arena: arena, pageSize: pageSize, mode: mode, fs: fs, clock: clock, name: name, page: p}, nil
}

// append adds one encoded record, spilling the page when full.
func (s *store) append(rec []byte) error {
	if len(rec) > s.pageSize {
		// A single record larger than a page (e.g. a KMV of a hot key).
		if s.mode == ErrorIfExceeds {
			return fmt.Errorf("%w: record of %d bytes > page of %d", ErrPageOverflow, len(rec), s.pageSize)
		}
		if err := s.flush(); err != nil {
			return err
		}
		if err := s.fs.Append(s.clock, s.name, rec); err != nil {
			return fmt.Errorf("mrmpi: spilling an oversized record: %w", err)
		}
		s.spilled += int64(len(rec))
		s.chunks = append(s.chunks, int64(len(rec)))
		s.nrec++
		s.totBytes += int64(len(rec))
		return nil
	}
	if s.page.Remaining() < len(rec) {
		if s.mode == ErrorIfExceeds {
			return fmt.Errorf("%w: %s holds %d bytes", ErrPageOverflow, s.name, s.totBytes)
		}
		if err := s.flush(); err != nil {
			return err
		}
	}
	s.page.Append(rec)
	s.nrec++
	s.totBytes += int64(len(rec))
	return nil
}

// flush writes the in-memory page to the spill file and resets it. A
// failed write leaves the page and the file as they were.
func (s *store) flush() error {
	if s.page.Used == 0 {
		return nil
	}
	if err := s.fs.Append(s.clock, s.name, s.page.Data()); err != nil {
		return fmt.Errorf("mrmpi: spilling a page: %w", err)
	}
	s.spilled += int64(s.page.Used)
	s.chunks = append(s.chunks, int64(s.page.Used))
	s.page.Used = 0
	return nil
}

// finalize applies the SpillAlways policy at the end of the producing phase.
func (s *store) finalize() error {
	if s.mode == SpillAlways {
		return s.flush()
	}
	return nil
}

// scanChunks streams the store's contents chunk by chunk: first the spilled
// chunks (each charged as a file-system read), then the resident page. Every
// chunk holds whole records because flush only writes whole records.
func (s *store) scanChunks(fn func(chunk []byte) error) error {
	off := int64(0)
	for _, n := range s.chunks {
		chunk, err := s.fs.ReadAt(s.clock, s.name, off, n)
		if err != nil {
			return err
		}
		if err := fn(chunk); err != nil {
			return err
		}
		off += n
	}
	if s.page.Used > 0 {
		return fn(s.page.Data())
	}
	return nil
}

// free releases the page and deletes the spill file.
func (s *store) free() {
	if s.page != nil {
		s.page.Release()
		s.page = nil
	}
	if s.spilled > 0 {
		s.fs.Remove(s.name)
		s.spilled = 0
		s.chunks = nil
	}
}

// spilledBytes reports how much of the store went out of core.
func (s *store) spilledBytes() int64 { return s.spilled }
