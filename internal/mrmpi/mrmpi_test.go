package mrmpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

func testNet() simtime.NetworkModel { return simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9} }

func wcMap(rec core.Record, emit core.Emitter) error {
	for _, w := range strings.Fields(string(rec.Val)) {
		if err := emit.Emit([]byte(w), core.Uint64Bytes(1)); err != nil {
			return err
		}
	}
	return nil
}

func wcReduce(key []byte, vals *kvbuf.ValueIter, emit core.Emitter) error {
	var sum uint64
	for v, ok := vals.Next(); ok; v, ok = vals.Next() {
		sum += core.BytesUint64(v)
	}
	return emit.Emit(key, core.Uint64Bytes(sum))
}

func wcCombine(_ []byte, existing, incoming []byte) ([]byte, error) {
	return core.Uint64Bytes(core.BytesUint64(existing) + core.BytesUint64(incoming)), nil
}

var testText = []string{
	"the quick brown fox jumps over the lazy dog",
	"the dog barks and the fox runs",
	"pack my box with five dozen liquor jugs",
	"the five boxing wizards jump quickly",
}

func refWordCount(lines []string) map[string]uint64 {
	ref := map[string]uint64{}
	for _, l := range lines {
		for _, w := range strings.Fields(l) {
			ref[w]++
		}
	}
	return ref
}

type wcResult struct {
	counts  map[string]uint64
	spilled int64
	peak    int64
}

// runWC executes the full MR-MPI WordCount pipeline.
func runWC(t *testing.T, p int, lines []string, pageSize int, mode Mode, compress bool) (wcResult, error) {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{Bandwidth: 1e8, Latency: 1e-6, Sharers: p})
	var mu sync.Mutex
	res := wcResult{counts: map[string]uint64{}}
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, PageSize: pageSize, Mode: mode, Spill: spill})
		defer mr.Free()
		var mine []core.Record
		for i, l := range lines {
			if i%p == c.Rank() {
				mine = append(mine, core.Record{Val: []byte(l)})
			}
		}
		if err := mr.Map(core.SliceInput(mine), wcMap); err != nil {
			return err
		}
		if compress {
			if err := mr.Compress(wcCombine); err != nil {
				return err
			}
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
		res.spilled += mr.Stats().SpilledBytes
		return mr.ScanOutput(func(k, v []byte) error {
			res.counts[string(k)] += core.BytesUint64(v)
			return nil
		})
	})
	res.peak = arena.Peak()
	if err != nil {
		return res, err
	}
	if used := arena.Used(); used != 0 {
		t.Fatalf("arena used %d after job, want 0", used)
	}
	return res, nil
}

func checkWC(t *testing.T, got, want map[string]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d unique words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
}

func TestWordCountInMemory(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			res, err := runWC(t, p, testText, 64<<10, SpillWhenNeeded, false)
			if err != nil {
				t.Fatal(err)
			}
			checkWC(t, res.counts, refWordCount(testText))
			if res.spilled != 0 {
				t.Errorf("spilled %d bytes with a large page, want 0", res.spilled)
			}
		})
	}
}

func TestWordCountSpillCorrectness(t *testing.T) {
	// A page far smaller than the data forces out-of-core operation in every
	// phase; results must be identical.
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma delta w%d x%d y%d", i%5, i%3, i)
	}
	res, err := runWC(t, 3, lines, 128, SpillWhenNeeded, false)
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, res.counts, refWordCount(lines))
	if res.spilled == 0 {
		t.Error("expected spilling with a 128-byte page")
	}
}

func TestSpillAlwaysCorrectness(t *testing.T) {
	res, err := runWC(t, 2, testText, 64<<10, SpillAlways, false)
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, res.counts, refWordCount(testText))
	if res.spilled == 0 {
		t.Error("SpillAlways must write data out of core even when it fits")
	}
}

func TestErrorIfExceedsFails(t *testing.T) {
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = strings.Repeat(fmt.Sprintf("word%d ", i), 8)
	}
	_, err := runWC(t, 2, lines, 128, ErrorIfExceeds, false)
	if !errors.Is(err, ErrPageOverflow) {
		t.Fatalf("err = %v, want ErrPageOverflow", err)
	}
}

func TestCompressReducesShuffleNotMemory(t *testing.T) {
	// The paper: "With MR-MPI we do not observe any impact on peak memory
	// usage because, despite the compression, the framework uses a fixed
	// number of pages."
	lines := make([]string, 32)
	for i := range lines {
		lines[i] = strings.Repeat("same words over and over ", 3)
	}
	shuffled := func(compress bool) (int64, int64) {
		w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
		arena := mem.NewArena(0)
		spill := pfs.New(pfs.Config{Bandwidth: 1e8})
		var mu sync.Mutex
		var total int64
		err := w.Run(func(c *mpi.Comm) error {
			mr := New(c, Config{Arena: arena, PageSize: 32 << 10, Spill: spill})
			defer mr.Free()
			var mine []core.Record
			for i, l := range lines {
				if i%2 == c.Rank() {
					mine = append(mine, core.Record{Val: []byte(l)})
				}
			}
			if err := mr.Map(core.SliceInput(mine), wcMap); err != nil {
				return err
			}
			if compress {
				if err := mr.Compress(wcCombine); err != nil {
					return err
				}
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
			total += mr.Stats().ShuffledBytes
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total, arena.Peak()
	}
	baseShuf, basePeak := shuffled(false)
	cpsShuf, cpsPeak := shuffled(true)
	if cpsShuf*2 > baseShuf {
		t.Errorf("compressed shuffle %d not << baseline %d", cpsShuf, baseShuf)
	}
	if cpsPeak < basePeak {
		t.Errorf("compression lowered MR-MPI peak (%d < %d); pages are fixed, it must not", cpsPeak, basePeak)
	}
}

func TestPeakMemoryIsPageBound(t *testing.T) {
	// MR-MPI peak memory is a function of page count, not dataset size.
	small, err := runWC(t, 2, testText[:1], 8<<10, SpillWhenNeeded, false)
	if err != nil {
		t.Fatal(err)
	}
	big, err := runWC(t, 2, append(append([]string{}, testText...), testText...), 8<<10, SpillWhenNeeded, false)
	if err != nil {
		t.Fatal(err)
	}
	if small.peak != big.peak {
		t.Errorf("peak varies with dataset: %d vs %d; MR-MPI pages are static", small.peak, big.peak)
	}
	// Aggregate dominates with 7 pages per rank.
	want := int64(2 * 7 * (8 << 10))
	if big.peak != want {
		t.Errorf("peak = %d, want %d (2 ranks x 7 pages)", big.peak, want)
	}
}

func TestPhaseOrderErrors(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 1, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{})
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, Spill: spill})
		defer mr.Free()
		if err := mr.Aggregate(); err == nil {
			return errors.New("Aggregate before Map succeeded")
		}
		if err := mr.Convert(); err == nil {
			return errors.New("Convert before Map succeeded")
		}
		if err := mr.Reduce(wcReduce); err == nil {
			return errors.New("Reduce before Convert succeeded")
		}
		if err := mr.Compress(wcCombine); err == nil {
			return errors.New("Compress before Map succeeded")
		}
		if err := mr.ScanOutput(func(k, v []byte) error { return nil }); err == nil {
			return errors.New("ScanOutput with no data succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOOMWhenPagesDontFit(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	arena := mem.NewArena(20 << 10) // too small for 2 ranks x 7 x 4 KiB pages
	spill := pfs.New(pfs.Config{})
	err := w.Run(func(c *mpi.Comm) error {
		mr := New(c, Config{Arena: arena, PageSize: 4 << 10, Spill: spill})
		defer mr.Free()
		if err := mr.Map(core.SliceInput([]core.Record{{Val: []byte("a b c")}}), wcMap); err != nil {
			return err
		}
		return mr.Aggregate()
	})
	if !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
}

func TestSpillChargesIOTime(t *testing.T) {
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = fmt.Sprintf("many distinct word%d tokens%d here%d", i, i*7, i*13)
	}
	run := func(pageSize int) float64 {
		w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
		arena := mem.NewArena(0)
		spill := pfs.New(pfs.Config{Bandwidth: 1e5, Latency: 1e-3, Sharers: 2})
		err := w.Run(func(c *mpi.Comm) error {
			mr := New(c, Config{Arena: arena, PageSize: pageSize, Spill: spill})
			defer mr.Free()
			var mine []core.Record
			for i, l := range lines {
				if i%2 == c.Rank() {
					mine = append(mine, core.Record{Val: []byte(l)})
				}
			}
			if err := mr.Map(core.SliceInput(mine), wcMap); err != nil {
				return err
			}
			if err := mr.Aggregate(); err != nil {
				return err
			}
			if err := mr.Convert(); err != nil {
				return err
			}
			return mr.Reduce(wcReduce)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	inMem := run(1 << 20)
	spilling := run(256)
	if spilling < 10*inMem {
		t.Errorf("spilling time %v not >> in-memory time %v", spilling, inMem)
	}
}

// Property: MR-MPI WordCount matches the reference for random corpora,
// page sizes, and modes that permit completion.
func TestWordCountMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint16) bool {
		nLines := int(seed%6) + 1
		lines := make([]string, nLines)
		for i := range lines {
			var sb strings.Builder
			for j := 0; j < int(seed%12)+1; j++ {
				fmt.Fprintf(&sb, "t%d ", (int(seed)+i+j*3)%9)
			}
			lines[i] = sb.String()
		}
		pageSize := []int{256, 4096, 64 << 10}[seed%3]
		compress := seed%2 == 0
		res, err := runWC(t, int(seed%3)+1, lines, pageSize, SpillWhenNeeded, compress)
		if err != nil {
			return false
		}
		want := refWordCount(lines)
		if len(res.counts) != len(want) {
			return false
		}
		for w, n := range want {
			if res.counts[w] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		SpillWhenNeeded: "spill-when-needed",
		SpillAlways:     "spill-always",
		ErrorIfExceeds:  "error-if-exceeds",
		Mode(7):         "Mode(7)",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without arena/spill did not panic")
		}
	}()
	New(nil, Config{})
}
