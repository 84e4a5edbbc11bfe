package pfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"mimir/internal/simtime"
)

var errDisk = errors.New("injected disk failure")

// memFile is a backing file held in memory that counts its calls and fails
// every one of them while broken is set.
type memFile struct {
	data          []byte
	broken        bool
	closed        bool
	reads, writes int
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads++
	if f.broken {
		return 0, errDisk
	}
	if off+int64(len(p)) > int64(len(f.data)) {
		return 0, io.EOF
	}
	return copy(p, f.data[off:]), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if f.broken {
		return 0, errDisk
	}
	if end := off + int64(len(p)); end > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	return copy(f.data[off:], p), nil
}

func (f *memFile) Close() error { f.closed = true; return nil }

// onMemFile returns an FS whose backing file is mf.
func onMemFile(cfg Config, mf *memFile) *FS {
	fs := New(cfg)
	fs.open = func() (backing, error) { return mf, nil }
	return fs
}

// TestBackingFailuresAreErrors: when the backing file fails, every call
// that touches it returns an error naming the file, charges nothing,
// counts nothing, and leaves the file as it was; a failed first Append
// leaves no file behind.
func TestBackingFailuresAreErrors(t *testing.T) {
	mf := &memFile{}
	fs := onMemFile(Config{Bandwidth: 1e6, Latency: 1e-3}, mf)
	c := simtime.NewClock()
	want := bytes.Repeat([]byte("0123456789abcdef"), 3*blockSize/16+5)
	if err := fs.Append(c, "f", want); err != nil {
		t.Fatal(err)
	}
	r0, w0, ops0 := fs.Stats()
	spent := c.Spent(simtime.IO)

	mf.broken = true
	named := func(call string, err error, name string) {
		t.Helper()
		if err == nil || !errors.Is(err, errDisk) || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("%s on a failing disk: %v, want an error naming %q", call, err, name)
		}
	}
	named("Append", fs.Append(c, "f", make([]byte, 2*blockSize)), "f")
	named("Append to a new file", fs.Append(c, "g", []byte("x")), "g")
	named("WriteAt", fs.WriteAt(c, "f", blockSize-3, []byte("spans a block")), "f")
	named("ReadInto", fs.ReadInto(c, "f", 7, make([]byte, 100)), "f")
	_, err := fs.ReadAt(c, "f", 0, 10)
	named("ReadAt", err, "f")
	got, err := fs.ReadAll(c, "f")
	named("ReadAll", err, "f")
	if got != nil {
		t.Errorf("failed ReadAll returned %d bytes", len(got))
	}

	if r, w, ops := fs.Stats(); r != r0 || w != w0 || ops != ops0 {
		t.Errorf("failed calls moved Stats: (%d,%d,%d) -> (%d,%d,%d)", r0, w0, ops0, r, w, ops)
	}
	if c.Spent(simtime.IO) != spent {
		t.Errorf("failed calls charged %v s", c.Spent(simtime.IO)-spent)
	}
	if fs.Size("f") != int64(len(want)) {
		t.Errorf("failed Append changed the size to %d", fs.Size("f"))
	}
	if _, ok := fs.files["g"]; ok {
		t.Error("a failed first Append left the file behind")
	}

	mf.broken = false
	if got, err := fs.ReadAll(c, "f"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("after the failures: %d bytes, %v; want the %d bytes written", len(got), err, len(want))
	}
	// The rolled-back blocks went to the free list; the next Append reuses
	// them instead of growing the backing file.
	end := fs.end
	if err := fs.Append(c, "f", make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if fs.end != end {
		t.Errorf("backing file grew from %d to %d with rolled-back blocks free", end, fs.end)
	}
	fs.Remove("f")
	if !mf.closed || fs.back != nil {
		t.Error("the backing file stayed open once the FS held no files")
	}
}

// TestOpenFailureIsAnError: an FS whose backing file cannot be created
// fails the Append that needs the first block, and keeps nothing.
func TestOpenFailureIsAnError(t *testing.T) {
	fs := New(Config{})
	fs.open = func() (backing, error) { return nil, errDisk }
	if err := fs.Append(nil, "f", []byte("x")); !errors.Is(err, errDisk) || !strings.Contains(err.Error(), `"f"`) {
		t.Errorf("Append with no backing file: %v", err)
	}
	if err := fs.Append(nil, "empty", nil); err != nil {
		t.Errorf("an empty Append needs no block: %v", err)
	}
	if len(fs.files) != 1 || fs.Size("empty") != 0 || fs.end != 0 || len(fs.free) != 0 {
		t.Errorf("failed open left state: %d files, end %d, %d free", len(fs.files), fs.end, len(fs.free))
	}
}

// TestExtentsCoalesce: a run of blocks adjacent in the backing file moves
// in one call, and a removed file's blocks come back in ascending order.
func TestExtentsCoalesce(t *testing.T) {
	mf := &memFile{}
	fs := onMemFile(Config{}, mf)
	if err := fs.Append(nil, "keep", []byte("x")); err != nil { // block 0
		t.Fatal(err)
	}
	data := make([]byte, 4*blockSize-10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	mf.writes = 0
	if err := fs.Append(nil, "a", data); err != nil { // blocks 1..4
		t.Fatal(err)
	}
	if mf.writes != 1 {
		t.Errorf("a 4-block Append took %d writes, want 1", mf.writes)
	}
	fs.Remove("a")
	mf.writes, mf.reads = 0, 0
	if err := fs.Append(nil, "b", data); err != nil { // reuses blocks 1..4
		t.Fatal(err)
	}
	got, err := fs.ReadAll(nil, "b")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAll: %d bytes, %v", len(got), err)
	}
	if mf.writes != 1 || mf.reads != 1 {
		t.Errorf("reused blocks took %d writes and %d reads, want 1 and 1", mf.writes, mf.reads)
	}
	if fs.end != 5*blockSize {
		t.Errorf("backing file extends to %d bytes, want %d", fs.end, 5*blockSize)
	}

	// Two files growing in turn interleave their blocks: each block of one
	// is its own stretch, and a read across them still returns the bytes.
	for i := 0; i < 3; i++ {
		for _, name := range []string{"c", "d"} {
			if err := fs.Append(nil, name, data[i*blockSize:(i+1)*blockSize]); err != nil {
				t.Fatal(err)
			}
		}
	}
	mf.reads = 0
	got, err = fs.ReadAt(nil, "c", 10, 2*blockSize)
	if err != nil || !bytes.Equal(got, data[10:10+2*blockSize]) {
		t.Fatalf("ReadAt across interleaved blocks: %d bytes, %v", len(got), err)
	}
	if mf.reads != 3 {
		t.Errorf("a read over 3 scattered blocks took %d reads, want 3", mf.reads)
	}
}

// TestBackingFileHygiene: the backing file lives in TMPDIR but is unlinked
// from the moment it exists, and an FS that writes and removes files over
// and over leaves the process's open descriptors as it found them. Only
// descriptors into this test's TMPDIR are counted: an FS another test left
// holding files closes its backing file whenever the GC finalizes it.
func TestBackingFileHygiene(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	fdsInDir := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list descriptors: %v", err)
		}
		n := 0
		for _, e := range ents {
			if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, dir) {
				n++
			}
		}
		return n
	}
	cycle := func() *FS {
		fs := New(Config{})
		for _, name := range []string{"a", "b"} {
			if err := fs.Append(nil, name, make([]byte, blockSize+1)); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}

	fs := cycle()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("TMPDIR holds %d entries while an FS holds data (%v), want 0", len(ents), err)
	}
	if n := fdsInDir(); n != 1 {
		t.Errorf("an FS holding data has %d descriptors open into TMPDIR, want 1", n)
	}
	fs.Remove("a")
	fs.Remove("b")
	if n := fdsInDir(); n != 0 {
		t.Errorf("an emptied FS still has %d descriptors open into TMPDIR", n)
	}

	for i := 0; i < 1000; i++ {
		fs := cycle()
		fs.Remove("a")
		fs.Remove("b")
	}
	if n := fdsInDir(); n != 0 {
		t.Errorf("1000 write/remove cycles left %d descriptors open into TMPDIR", n)
	}
}
