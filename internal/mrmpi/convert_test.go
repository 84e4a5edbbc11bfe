package mrmpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
)

func TestNextKMVRecord(t *testing.T) {
	// Build one record: key "ab", values "x", "yz".
	rec := kmvHeader(nil, 2, 2)
	rec = append(rec, "ab"...)
	rec = append(rec, 1, 0, 0, 0, 'x')
	rec = append(rec, 2, 0, 0, 0, 'y', 'z')
	trailer := append(append([]byte{}, rec...), 0xFF) // extra byte after
	got, n, err := nextKMVRecord(trailer)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rec) || !bytes.Equal(got, rec) {
		t.Errorf("nextKMVRecord consumed %d of %d", n, len(rec))
	}
	key, nvals, vals, err := decodeKMV(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(key) != "ab" || nvals != 2 {
		t.Errorf("decodeKMV = %q, %d", key, nvals)
	}
	it := kvbuf.NewValueIter(vals, nvals, kvbuf.Varlen())
	v1, _ := it.Next()
	v2, _ := it.Next()
	if string(v1) != "x" || string(v2) != "yz" {
		t.Errorf("values = %q, %q", v1, v2)
	}
}

func TestNextKMVRecordCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},                         // short header
		kmvHeader(nil, 100, 1),            // key longer than record
		append(kmvHeader(nil, 1, 2), 'k'), // declared values missing
	}
	for i, c := range cases {
		if _, _, err := nextKMVRecord(c); err == nil {
			t.Errorf("case %d: corrupt KMV accepted", i)
		}
	}
}

func TestHotKeyOversizedKMVRecord(t *testing.T) {
	// One key with thousands of values produces a KMV record much larger
	// than the page; it must spill as an oversized record and reduce
	// correctly — the mechanism behind MR-MPI's failures on skewed data.
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{Bandwidth: 1e8})
	var mu sync.Mutex
	counts := map[string]uint64{}
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, PageSize: 512, Spill: spill})
		defer mr.Free()
		input := core.SliceInput([]core.Record{{Val: []byte(strings.Repeat("hot ", 500))}})
		if err := mr.Map(input, wcMap); err != nil {
			return err
		}
		if err := mr.Aggregate(); err != nil {
			return err
		}
		if err := mr.Convert(); err != nil {
			return err
		}
		if err := mr.Reduce(wcReduce); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return mr.ScanOutput(func(k, v []byte) error {
			counts[string(k)] += core.BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts["hot"] != 1000 {
		t.Errorf("count[hot] = %d, want 1000", counts["hot"])
	}
}

func TestHotKeyErrorModeFails(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 1, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{})
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, PageSize: 256, Mode: ErrorIfExceeds, Spill: spill})
		defer mr.Free()
		input := core.SliceInput([]core.Record{{Val: []byte(strings.Repeat("hot ", 200))}})
		if err := mr.Map(input, wcMap); err != nil {
			return err
		}
		if err := mr.Aggregate(); err != nil {
			return err
		}
		return mr.Convert()
	})
	if !errors.Is(err, ErrPageOverflow) {
		t.Fatalf("err = %v, want ErrPageOverflow", err)
	}
}

func TestKeyOwnershipAfterAggregate(t *testing.T) {
	// After aggregate, all copies of a key live on exactly one rank.
	const p = 4
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{Bandwidth: 1e9})
	var mu sync.Mutex
	owner := map[string]int{}
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, Spill: spill})
		defer mr.Free()
		input := core.SliceInput([]core.Record{
			{Val: []byte(fmt.Sprintf("shared alpha beta gamma rank%d", c.Rank()))},
		})
		if err := mr.Map(input, wcMap); err != nil {
			return err
		}
		if err := mr.Aggregate(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return mr.ScanOutput(func(k, v []byte) error {
			if prev, ok := owner[string(k)]; ok && prev != c.Rank() {
				return fmt.Errorf("key %q on ranks %d and %d", k, prev, c.Rank())
			}
			owner[string(k)] = c.Rank()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(owner) != 4+p {
		t.Errorf("unique keys = %d, want %d", len(owner), 4+p)
	}
}

func TestMultiCycleMapReduce(t *testing.T) {
	// MR-MPI reuses the same object for iterative jobs: the reduce output
	// becomes the next cycle's data, and Map replaces it.
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{Bandwidth: 1e9})
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, Spill: spill})
		defer mr.Free()
		for cycle := 0; cycle < 3; cycle++ {
			input := core.SliceInput([]core.Record{
				{Val: []byte(fmt.Sprintf("cycle%d common words here", cycle))},
			})
			if err := mr.Map(input, wcMap); err != nil {
				return err
			}
			if err := mr.Aggregate(); err != nil {
				return err
			}
			if err := mr.Convert(); err != nil {
				return err
			}
			if err := mr.Reduce(wcReduce); err != nil {
				return err
			}
			n := int64(0)
			if err := mr.ScanOutput(func(k, v []byte) error { n++; return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if arena.Used() != 0 {
		t.Errorf("arena used %d after cycles", arena.Used())
	}
}

func TestStoreScanChunksRecordAligned(t *testing.T) {
	// Chunks returned by scanChunks must decode independently even when
	// flushes happened at odd record boundaries.
	arena := mem.NewArena(0)
	fs := pfs.New(pfs.Config{Bandwidth: 1e9})
	clk := mpi.NewWorld(mpi.Config{Size: 1}).Clock(0)
	s, err := newStore(arena, 100, SpillWhenNeeded, fs, clk, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer s.free()
	h := kvbuf.DefaultHint()
	var want []string
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := strings.Repeat("v", i%13)
		enc, err := h.Encode(nil, []byte(k), []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.append(enc); err != nil {
			t.Fatal(err)
		}
		want = append(want, k+"="+v)
	}
	var got []string
	err = s.scanChunks(func(chunk []byte) error {
		for pos := 0; pos < len(chunk); {
			k, v, n, err := h.Decode(chunk[pos:])
			if err != nil {
				return err
			}
			got = append(got, string(k)+"="+string(v))
			pos += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if s.spilledBytes() == 0 {
		t.Error("expected spilling with 100-byte page")
	}
}

func TestSpillAlwaysFlushesAtFinalize(t *testing.T) {
	arena := mem.NewArena(0)
	fs := pfs.New(pfs.Config{Bandwidth: 1e9})
	clk := mpi.NewWorld(mpi.Config{Size: 1}).Clock(0)
	s, err := newStore(arena, 1<<20, SpillAlways, fs, clk, "t2")
	if err != nil {
		t.Fatal(err)
	}
	defer s.free()
	if err := s.append([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if s.spilledBytes() != 0 {
		t.Fatal("spilled before finalize")
	}
	s.finalize()
	if s.spilledBytes() != 4 {
		t.Errorf("spilled %d bytes after finalize, want 4", s.spilledBytes())
	}
}

func TestOutOfCoreConvertManyPartitions(t *testing.T) {
	// Enough KVs to force the partitioned out-of-core convert path with
	// several partitions; grouped output must be exact.
	w := mpi.NewWorld(mpi.Config{Size: 1, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{Bandwidth: 1e9})
	want := map[string]uint64{}
	got := map[string]uint64{}
	var lines []core.Record
	for i := 0; i < 200; i++ {
		line := fmt.Sprintf("w%d x%d y%d z%d", i%17, i%5, i%29, i)
		lines = append(lines, core.Record{Val: []byte(line)})
		for _, wd := range strings.Fields(line) {
			want[wd]++
		}
	}
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, PageSize: 256, Spill: spill})
		defer mr.Free()
		if err := mr.Map(core.SliceInput(lines), wcMap); err != nil {
			return err
		}
		if err := mr.Aggregate(); err != nil {
			return err
		}
		if err := mr.Convert(); err != nil {
			return err
		}
		if err := mr.Reduce(wcReduce); err != nil {
			return err
		}
		return mr.ScanOutput(func(k, v []byte) error {
			got[string(k)] += core.BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, got, want)
}
