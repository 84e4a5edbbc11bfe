// Package pfs simulates the globally shared parallel file system of a
// supercomputer (Lustre on Comet, GPFS behind 1:128 I/O forwarding nodes on
// Mira). Supercomputer nodes have no local disk, so both input data and
// MR-MPI's out-of-core page spills go through this file system — which is
// why spilling costs orders of magnitude more than memory and produces the
// performance cliff of Figure 1.
//
// Files are backed by process memory (this is a simulation of storage, so
// their bytes are deliberately NOT charged to any node's memory arena);
// every operation charges simulated I/O time to the calling rank's clock
// using a shared-bandwidth model.
//
// A file is a list of fixed blockSize blocks plus a byte count, not one
// contiguous slice: appending never moves bytes already written, and the
// blocks of a removed file go to a free list the FS reuses for the next
// file. A spill file written again job after job therefore costs no fresh
// memory after the first time, and the free list never holds more blocks
// than the FS's own peak of live blocks.
package pfs

import (
	"fmt"
	"sync"

	"mimir/internal/simtime"
)

// blockSize is the unit files are stored in. Large enough that a spilled
// page (tens of KiB) spans one or two blocks; small enough that a
// checkpoint header of a few bytes does not pin a megabyte.
const blockSize = 64 << 10

// Config describes the file system's performance.
type Config struct {
	// Bandwidth is the aggregate file-system bandwidth in (effective,
	// scale-calibrated) bytes per second.
	Bandwidth float64
	// Latency is the fixed per-operation cost in seconds (metadata, RPC).
	Latency float64
	// Sharers is the number of clients the aggregate bandwidth is divided
	// among: on Comet every rank of the job shares the Lustre pipes; on Mira
	// each group of 128 nodes funnels through one I/O forwarding node. The
	// experiment harness sets this to the number of ranks in the job
	// (capped by the forwarding ratio on Mira). Zero means 1.
	Sharers int
}

func (c Config) perClientSeconds(n int) float64 {
	sharers := c.Sharers
	if sharers < 1 {
		sharers = 1
	}
	if c.Bandwidth <= 0 {
		return c.Latency
	}
	return c.Latency + float64(n)*float64(sharers)/c.Bandwidth
}

// file is one file's bytes: size bytes laid out over blocks, each
// blockSize long, the last one filled only up to size.
type file struct {
	blocks [][]byte
	size   int64
}

// copyOut copies len(dst) bytes starting at off into dst; the range is valid.
func (f *file) copyOut(off int64, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, f.blocks[off/blockSize][off%blockSize:])
		dst = dst[n:]
		off += int64(n)
	}
}

// copyIn copies src over the file's bytes starting at off; the range is valid.
func (f *file) copyIn(off int64, src []byte) {
	for len(src) > 0 {
		n := copy(f.blocks[off/blockSize][off%blockSize:], src)
		src = src[n:]
		off += int64(n)
	}
}

// FS is a simulated parallel file system shared by all ranks.
type FS struct {
	cfg Config

	mu           sync.Mutex
	files        map[string]*file
	free         [][]byte // blocks of removed files, reused before allocating
	bytesRead    int64
	bytesWritten int64
	ops          int64
}

// New creates an empty file system.
func New(cfg Config) *FS {
	return &FS{cfg: cfg, files: make(map[string]*file)}
}

// charge advances clock by the cost of moving n bytes.
func (fs *FS) charge(clock *simtime.Clock, n int64) {
	if clock != nil {
		clock.Advance(fs.cfg.perClientSeconds(int(n)), simtime.IO)
	}
}

// span returns the named file when [off, off+n) lies inside it. Callers
// hold fs.mu.
func (fs *FS) span(op, name string, off, n int64) (*file, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: no such file %q", name)
	}
	if off < 0 || n < 0 || off+n > f.size {
		return nil, fmt.Errorf("pfs: %s [%d,%d) out of range of %q (size %d)", op, off, off+n, name, f.size)
	}
	return f, nil
}

// Append adds data to the end of the named file (creating it if needed) and
// charges the write cost to clock.
func (fs *FS) Append(clock *simtime.Clock, name string, data []byte) {
	fs.mu.Lock()
	f := fs.files[name]
	if f == nil {
		f = &file{}
		fs.files[name] = f
	}
	for rest := data; len(rest) > 0; {
		if f.size == int64(len(f.blocks))*blockSize {
			f.blocks = append(f.blocks, fs.newBlock())
		}
		n := copy(f.blocks[f.size/blockSize][f.size%blockSize:], rest)
		rest = rest[n:]
		f.size += int64(n)
	}
	fs.bytesWritten += int64(len(data))
	fs.ops++
	fs.mu.Unlock()
	fs.charge(clock, int64(len(data)))
}

// newBlock takes a block from the free list, or allocates one when it is
// empty. A reused block holds a removed file's bytes, but only the bytes
// the new owner writes are ever read back. Callers hold fs.mu.
func (fs *FS) newBlock() []byte {
	if n := len(fs.free); n > 0 {
		b := fs.free[n-1]
		fs.free[n-1] = nil
		fs.free = fs.free[:n-1]
		return b
	}
	return make([]byte, blockSize)
}

// WriteAt overwrites len(data) bytes at offset off of the named file,
// charging the write cost to clock. The range must already exist: WriteAt
// rewrites a previously appended region in place (the spill store's dirty
// page rewrite), it does not extend the file.
func (fs *FS) WriteAt(clock *simtime.Clock, name string, off int64, data []byte) error {
	fs.mu.Lock()
	f, err := fs.span("write", name, off, int64(len(data)))
	if err == nil {
		f.copyIn(off, data)
		fs.bytesWritten += int64(len(data))
		fs.ops++
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	fs.charge(clock, int64(len(data)))
	return nil
}

// ReadAll returns a copy of the named file's contents, charging the read
// cost to clock. Reading a missing file is an error.
func (fs *FS) ReadAll(clock *simtime.Clock, name string) ([]byte, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	var out []byte
	if ok {
		if f.size > 0 {
			out = make([]byte, f.size)
			f.copyOut(0, out)
		}
		fs.bytesRead += f.size
		fs.ops++
	}
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pfs: no such file %q", name)
	}
	fs.charge(clock, int64(len(out)))
	return out, nil
}

// ReadAt returns a copy of n bytes at offset off of the named file.
func (fs *FS) ReadAt(clock *simtime.Clock, name string, off, n int64) ([]byte, error) {
	var out []byte
	err := fs.read(clock, name, off, n, func() []byte {
		if n > 0 {
			out = make([]byte, n)
		}
		return out
	})
	return out, err
}

// ReadInto fills dst with the len(dst) bytes at offset off of the named
// file. It is ReadAt for a caller that already owns the destination — the
// spill store restores straight into a page's buffer — with the same
// charges and errors.
func (fs *FS) ReadInto(clock *simtime.Clock, name string, off int64, dst []byte) error {
	return fs.read(clock, name, off, int64(len(dst)), func() []byte { return dst })
}

// read copies n bytes at off of the named file into the slice dst returns
// and charges the read. dst runs only once the range is known to be valid,
// so a request out of range allocates nothing.
func (fs *FS) read(clock *simtime.Clock, name string, off, n int64, dst func() []byte) error {
	fs.mu.Lock()
	f, err := fs.span("read", name, off, n)
	if err == nil {
		f.copyOut(off, dst())
		fs.bytesRead += n
		fs.ops++
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	fs.charge(clock, n)
	return nil
}

// Size returns the current size of the named file (0 if absent).
func (fs *FS) Size(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		return f.size
	}
	return 0
}

// Remove deletes the named file, keeping its blocks for reuse; removing a
// missing file is a no-op.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		fs.free = append(fs.free, f.blocks...)
		delete(fs.files, name)
	}
}

// ChargeRead charges clock for reading n bytes without transferring data.
// The workload generators use it to account for reading the (synthetic)
// input dataset from the parallel file system, which the paper includes in
// execution time.
func (fs *FS) ChargeRead(clock *simtime.Clock, n int64) {
	fs.mu.Lock()
	fs.bytesRead += n
	fs.ops++
	fs.mu.Unlock()
	fs.charge(clock, n)
}

// Stats returns total bytes read, bytes written, and operation count.
func (fs *FS) Stats() (bytesRead, bytesWritten, ops int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesRead, fs.bytesWritten, fs.ops
}
