package pfs

import (
	"bytes"
	"fmt"
	mathrand "math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"

	"mimir/internal/simtime"
)

// mapFS is the map-backed file system this package used to be — one
// contiguous slice per file — kept as the reference the block-backed FS
// must match call for call: bytes, errors, counters and charged seconds.
type mapFS struct {
	cfg                          Config
	files                        map[string][]byte
	bytesRead, bytesWritten, ops int64
}

func (m *mapFS) charge(c *simtime.Clock, n int) { c.Advance(m.cfg.perClientSeconds(n), simtime.IO) }

func (m *mapFS) Append(c *simtime.Clock, name string, data []byte) {
	m.files[name] = append(m.files[name], data...)
	m.bytesWritten += int64(len(data))
	m.ops++
	m.charge(c, len(data))
}

func (m *mapFS) WriteAt(c *simtime.Clock, name string, off int64, data []byte) error {
	file, ok := m.files[name]
	switch {
	case !ok:
		return fmt.Errorf("pfs: no such file %q", name)
	case off < 0 || off+int64(len(data)) > int64(len(file)):
		return fmt.Errorf("pfs: write [%d,%d) out of range of %q (size %d)", off, off+int64(len(data)), name, len(file))
	}
	copy(file[off:], data)
	m.bytesWritten += int64(len(data))
	m.ops++
	m.charge(c, len(data))
	return nil
}

func (m *mapFS) ReadAll(c *simtime.Clock, name string) ([]byte, error) {
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: no such file %q", name)
	}
	m.bytesRead += int64(len(data))
	m.ops++
	m.charge(c, len(data))
	return append([]byte(nil), data...), nil
}

func (m *mapFS) ReadAt(c *simtime.Clock, name string, off, n int64) ([]byte, error) {
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: no such file %q", name)
	}
	if off < 0 || off+n > int64(len(data)) {
		return nil, fmt.Errorf("pfs: read [%d,%d) out of range of %q (size %d)", off, off+n, name, len(data))
	}
	m.bytesRead += n
	m.ops++
	m.charge(c, int(n))
	return append([]byte(nil), data[off:off+n]...), nil
}

func (m *mapFS) Size(name string) int64 { return int64(len(m.files[name])) }

func (m *mapFS) Remove(name string) { delete(m.files, name) }

// propLen draws a length that lands on, just around, or across block
// boundaries as often as it lands anywhere else.
func propLen(rng *mathrand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1 + rng.Intn(16)
	case 2:
		return blockSize - 1 + rng.Intn(3)
	case 3:
		return 2*blockSize - 1 + rng.Intn(3)
	default:
		return rng.Intn(3 * blockSize)
	}
}

// propOff draws an offset into a file of the given size: often valid, near
// a block boundary, at the end, or just outside the file.
func propOff(rng *mathrand.Rand, size int64) int64 {
	switch rng.Intn(5) {
	case 0:
		return -1 - rng.Int63n(2)
	case 1:
		return size - rng.Int63n(3)
	case 2:
		return int64(rng.Intn(4))*blockSize - 1 + rng.Int63n(3)
	default:
		return rng.Int63n(size + 2)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBlockFSMatchesMapModel runs random sequences of every FS call —
// zero-length calls, spans that cross block boundaries, out-of-range and
// missing-file calls included — against both the block-backed FS and the
// map model, and requires identical bytes, errors, Stats and charged
// seconds after every call. It also pins the block lifecycle: live files
// hold exactly the blocks their sizes need, removed files' blocks are
// reused, so live plus free blocks never exceed the FS's peak of live ones,
// and an FS with no files has closed its backing file and owns nothing.
// MIMIR_PROP_SEED reproduces a draw.
func TestBlockFSMatchesMapModel(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("MIMIR_PROP_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad MIMIR_PROP_SEED %q: %v", v, err)
		}
		seed = n
	}
	names := []string{"a", "b", "c"}
	qc := &quick.Config{MaxCount: 150, Rand: mathrand.New(mathrand.NewSource(seed))}
	err := quick.Check(func(draw int64) bool {
		rng := mathrand.New(mathrand.NewSource(draw))
		cfg := Config{Bandwidth: 1e6, Latency: 1e-3, Sharers: 1 + rng.Intn(3)}
		fs, model := New(cfg), &mapFS{cfg: cfg, files: map[string][]byte{}}
		fc, mc := simtime.NewClock(), simtime.NewClock()
		peakLive := 0
		fail := func(step int, format string, args ...any) bool {
			t.Errorf("draw %d step %d: %s", draw, step, fmt.Sprintf(format, args...))
			return false
		}
		for step := 0; step < 80; step++ {
			name := names[rng.Intn(len(names))]
			size := model.Size(name)
			var op string
			switch k := rng.Intn(10); k {
			case 0, 1, 2:
				data := make([]byte, propLen(rng))
				rng.Read(data)
				op = fmt.Sprintf("Append(%q, %d bytes)", name, len(data))
				if err := fs.Append(fc, name, data); err != nil {
					return fail(step, "%s: %v", op, err)
				}
				model.Append(mc, name, data)
			case 3:
				data := make([]byte, propLen(rng))
				rng.Read(data)
				off := propOff(rng, size)
				op = fmt.Sprintf("WriteAt(%q, %d, %d bytes)", name, off, len(data))
				if g, w := errText(fs.WriteAt(fc, name, off, data)), errText(model.WriteAt(mc, name, off, data)); g != w {
					return fail(step, "%s: error %q, model %q", op, g, w)
				}
			case 4:
				off, n := propOff(rng, size), int64(propLen(rng))
				op = fmt.Sprintf("ReadAt(%q, %d, %d)", name, off, n)
				got, gerr := fs.ReadAt(fc, name, off, n)
				want, werr := model.ReadAt(mc, name, off, n)
				if errText(gerr) != errText(werr) || !bytes.Equal(got, want) {
					return fail(step, "%s: %d bytes, error %v; model %d bytes, error %v", op, len(got), gerr, len(want), werr)
				}
			case 5:
				off, n := propOff(rng, size), propLen(rng)
				op = fmt.Sprintf("ReadInto(%q, %d, %d)", name, off, n)
				dst := bytes.Repeat([]byte{0xA5}, n)
				gerr := fs.ReadInto(fc, name, off, dst)
				want, werr := model.ReadAt(mc, name, off, int64(n))
				if errText(gerr) != errText(werr) {
					return fail(step, "%s: error %v, model %v", op, gerr, werr)
				}
				if werr != nil {
					want = bytes.Repeat([]byte{0xA5}, n) // a failed read leaves dst alone
				}
				if !bytes.Equal(dst, want) {
					return fail(step, "%s: bytes differ from the model", op)
				}
			case 6:
				op = fmt.Sprintf("ReadAll(%q)", name)
				got, gerr := fs.ReadAll(fc, name)
				want, werr := model.ReadAll(mc, name)
				if errText(gerr) != errText(werr) || !bytes.Equal(got, want) {
					return fail(step, "%s: %d bytes, error %v; model %d bytes, error %v", op, len(got), gerr, len(want), werr)
				}
			case 7:
				op = fmt.Sprintf("Size(%q)", name)
			default:
				op = fmt.Sprintf("Remove(%q)", name)
				fs.Remove(name)
				model.Remove(name)
			}
			if g, w := fs.Size(name), model.Size(name); g != w {
				return fail(step, "after %s: Size %d, model %d", op, g, w)
			}
			gr, gw, gops := fs.Stats()
			if gr != model.bytesRead || gw != model.bytesWritten || gops != model.ops {
				return fail(step, "after %s: Stats (%d,%d,%d), model (%d,%d,%d)", op, gr, gw, gops, model.bytesRead, model.bytesWritten, model.ops)
			}
			if g, w := fc.Spent(simtime.IO), mc.Spent(simtime.IO); g != w {
				return fail(step, "after %s: charged %v s, model %v s", op, g, w)
			}
			live, need := 0, 0
			for n, f := range fs.files {
				live += len(f.blocks)
				need += (len(model.files[n]) + blockSize - 1) / blockSize
			}
			if live != need {
				return fail(step, "after %s: files hold %d blocks, their sizes need %d", op, live, need)
			}
			if live > peakLive {
				peakLive = live
			}
			// The backing file grows only when the free list is empty, so
			// the FS never owns more blocks than it once had live; every
			// block it owns is live or free; and an FS with no files owns
			// no blocks and no backing file.
			owned := live + len(fs.free)
			if owned > peakLive {
				return fail(step, "after %s: %d live + %d free blocks, peak live count %d", op, live, len(fs.free), peakLive)
			}
			if int64(owned)*blockSize != fs.end {
				return fail(step, "after %s: %d blocks owned, backing file extends to %d bytes", op, owned, fs.end)
			}
			if len(fs.files) == 0 && (owned != 0 || fs.back != nil) {
				return fail(step, "after %s: empty FS owns %d blocks, backing file open: %v", op, owned, fs.back != nil)
			}
		}
		for _, n := range names {
			fs.Remove(n)
		}
		if fs.back != nil {
			return fail(80, "backing file still open after every file was removed")
		}
		return true
	}, qc)
	if err != nil {
		t.Fatal(err)
	}
}
