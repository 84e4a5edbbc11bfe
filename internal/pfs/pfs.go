// Package pfs simulates the globally shared parallel file system of a
// supercomputer (Lustre on Comet, GPFS behind 1:128 I/O forwarding nodes on
// Mira). Supercomputer nodes have no local disk, so both input data and
// MR-MPI's out-of-core page spills go through this file system — which is
// why spilling costs orders of magnitude more than memory and produces the
// performance cliff of Figure 1.
//
// Every operation charges simulated I/O time to the calling rank's clock
// using a shared-bandwidth model. The bytes themselves live on the host's
// real disk, outside the Go heap, so a page a rank spills really leaves its
// memory: an FS keeps all its files in one backing file that it creates in
// os.TempDir (TMPDIR is honoured) on its first block and unlinks at once, so
// a crash or kill cannot leave it behind.
//
// A file is a list of fixed blockSize blocks, each an offset into the
// backing file, plus a byte count: appending never moves bytes already
// written, and the blocks of a removed file go to a free list the FS reuses
// for the next file, so the backing file never grows past the FS's own peak
// of live blocks. Reads and writes issue one call per run of blocks that lie
// end to end in the backing file. Once the FS holds no files it closes the
// backing file and forgets its free list, so only an FS that holds data
// holds a descriptor.
package pfs

import (
	"fmt"
	"io"
	"os"
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

// backing is the one file an FS keeps its blocks in.
type backing interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
}

// openTemp creates a backing file in os.TempDir and unlinks it at once: it
// takes disk space only while open, and nothing is left behind however the
// process ends.
func openTemp() (backing, error) {
	f, err := os.CreateTemp("", "mimir-pfs-*")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// file is one file's bytes: size bytes laid out over blocks, each the
// offset of blockSize bytes of the backing file, the last one filled only
// up to size.
type file struct {
	blocks []int64
	size   int64
}

// extents calls fn once per stretch of the file's bytes [off, off+n) whose
// blocks lie end to end in the backing file, passing where the stretch
// starts there and its bounds [lo, hi) relative to off. The range is valid.
func (f *file) extents(off int64, n int, fn func(at int64, lo, hi int) error) error {
	for lo := 0; lo < n; {
		pos := off + int64(lo)
		i := pos / blockSize
		at := f.blocks[i] + pos%blockSize
		hi := lo + int(blockSize-pos%blockSize)
		for i++; hi < n && f.blocks[i] == f.blocks[i-1]+blockSize; i++ {
			hi += blockSize
		}
		hi = min(hi, n)
		if err := fn(at, lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// copyOut reads len(dst) bytes starting at off into dst; the range is valid.
func (f *file) copyOut(b backing, off int64, dst []byte) error {
	return f.extents(off, len(dst), func(at int64, lo, hi int) error {
		_, err := b.ReadAt(dst[lo:hi], at)
		return err
	})
}

// copyIn writes src over the file's bytes starting at off; the blocks
// exist.
func (f *file) copyIn(b backing, off int64, src []byte) error {
	return f.extents(off, len(src), func(at int64, lo, hi int) error {
		_, err := b.WriteAt(src[lo:hi], at)
		return err
	})
}

// FS is a simulated parallel file system shared by all ranks.
type FS struct {
	cfg  Config
	open func() (backing, error) // openTemp; tests substitute a failing file

	mu           sync.Mutex
	files        map[string]*file
	back         backing // nil until the first block, and again once no file remains
	end          int64   // bytes of back handed out as blocks
	free         []int64 // blocks of removed files, reused before extending back
	bytesRead    int64
	bytesWritten int64
	ops          int64
}

// New creates an empty file system.
func New(cfg Config) *FS {
	return &FS{cfg: cfg, open: openTemp, files: make(map[string]*file)}
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
// charges the write cost to clock. A failed append leaves the file as it
// was, and absent if it was.
func (fs *FS) Append(clock *simtime.Clock, name string, data []byte) error {
	fs.mu.Lock()
	err := fs.append(name, data)
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	fs.charge(clock, int64(len(data)))
	return nil
}

// append is Append under fs.mu.
func (fs *FS) append(name string, data []byte) error {
	f := fs.files[name]
	created := f == nil
	if created {
		f = &file{}
		fs.files[name] = f
	}
	had := len(f.blocks)
	var err error
	for end := f.size + int64(len(data)); err == nil && int64(len(f.blocks))*blockSize < end; {
		var b int64
		if b, err = fs.newBlock(); err == nil {
			f.blocks = append(f.blocks, b)
		}
	}
	if err == nil {
		err = f.copyIn(fs.back, f.size, data)
	}
	if err != nil {
		fs.freeBlocks(f.blocks[had:])
		f.blocks = f.blocks[:had]
		if created {
			fs.drop(name)
		}
		return fmt.Errorf("pfs: append to %q: %w", name, err)
	}
	f.size += int64(len(data))
	fs.bytesWritten += int64(len(data))
	fs.ops++
	return nil
}

// newBlock takes a block from the free list, or extends the backing file
// by one, opening it first if need be. A reused block holds a removed
// file's bytes, but only the bytes the new owner writes are ever read back.
// Callers hold fs.mu.
func (fs *FS) newBlock() (int64, error) {
	if n := len(fs.free); n > 0 {
		b := fs.free[n-1]
		fs.free = fs.free[:n-1]
		return b, nil
	}
	if fs.back == nil {
		back, err := fs.open()
		if err != nil {
			return 0, err
		}
		fs.back = back
	}
	b := fs.end
	fs.end += blockSize
	return b, nil
}

// freeBlocks pushes blocks onto the free list in reverse, so newBlock hands
// them out again in their original order. Callers hold fs.mu.
func (fs *FS) freeBlocks(blocks []int64) {
	for i := len(blocks) - 1; i >= 0; i-- {
		fs.free = append(fs.free, blocks[i])
	}
}

// drop deletes the named file's entry and, when it was the last file,
// closes the backing file and forgets the blocks in it. Callers hold fs.mu
// and have freed the file's blocks.
func (fs *FS) drop(name string) {
	delete(fs.files, name)
	if len(fs.files) > 0 || fs.back == nil {
		return
	}
	// The file is unlinked and nothing in it will be read again, so a
	// failed close loses nothing.
	_ = fs.back.Close()
	fs.back, fs.end, fs.free = nil, 0, nil
}

// WriteAt overwrites len(data) bytes at offset off of the named file,
// charging the write cost to clock. The range must already exist: WriteAt
// rewrites a previously appended region in place (the spill store's dirty
// page rewrite), it does not extend the file.
func (fs *FS) WriteAt(clock *simtime.Clock, name string, off int64, data []byte) error {
	fs.mu.Lock()
	f, err := fs.span("write", name, off, int64(len(data)))
	if err == nil {
		if err = f.copyIn(fs.back, off, data); err != nil {
			err = fmt.Errorf("pfs: write to %q: %w", name, err)
		} else {
			fs.bytesWritten += int64(len(data))
			fs.ops++
		}
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
	if !ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("pfs: no such file %q", name)
	}
	var out []byte
	if f.size > 0 {
		out = make([]byte, f.size)
		if err := f.copyOut(fs.back, 0, out); err != nil {
			fs.mu.Unlock()
			return nil, fmt.Errorf("pfs: read from %q: %w", name, err)
		}
	}
	fs.bytesRead += f.size
	fs.ops++
	fs.mu.Unlock()
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
	if err != nil {
		return nil, err
	}
	return out, nil
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
		if err = f.copyOut(fs.back, off, dst()); err != nil {
			err = fmt.Errorf("pfs: read from %q: %w", name, err)
		} else {
			fs.bytesRead += n
			fs.ops++
		}
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
		fs.freeBlocks(f.blocks)
		fs.drop(name)
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
