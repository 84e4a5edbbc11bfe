package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
)

func testOutput(t *testing.T, arena *mem.Arena) (*Output, [][2]string) {
	t.Helper()
	kvc := kvbuf.NewKVC(arena, 256, kvbuf.DefaultHint())
	for i := 0; i < 500; i++ {
		if err := kvc.Append([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	o := &Output{KVC: kvc}
	var want [][2]string
	if err := o.Scan(func(k, v []byte) error {
		want = append(want, [2]string{string(k), string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return o, want
}

// TestOutputDrain: Drain visits Scan's sequence while the arena's usage only
// falls, and leaves the output empty. Release scribbling is on, so a page
// freed under its reader shows up as wrong bytes.
func TestOutputDrain(t *testing.T) {
	arena := mem.NewArena(0)
	o, want := testOutput(t, arena)
	mem.DebugPool(true)
	defer mem.DebugPool(false)
	start := arena.Used()
	last := start
	var got [][2]string
	err := o.Drain(func(k, v []byte) error {
		if used := arena.Used(); used > last {
			t.Fatalf("KV %d: arena usage rose %d -> %d during the drain", len(got), last, used)
		} else {
			last = used
		}
		got = append(got, [2]string{string(k), string(v)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("drain yields %d KVs that differ from the scan's %d", len(got), len(want))
	}
	if last >= start {
		t.Fatalf("no page was released before the last KV (usage %d at start, %d at the end)", start, last)
	}
	if arena.Used() != 0 || o.NumKV() != 0 {
		t.Fatalf("after the drain: arena holds %d bytes, output %d KVs; want both 0", arena.Used(), o.NumKV())
	}
	o.Free() // a drained output frees nothing twice
	if arena.Used() != 0 {
		t.Fatalf("Free after Drain moved the arena to %d", arena.Used())
	}
}

// TestOutputDrainErrorFrees: a reader error stops the drain, is returned,
// and the output's pages still all go back to the arena.
func TestOutputDrainErrorFrees(t *testing.T) {
	arena := mem.NewArena(0)
	o, _ := testOutput(t, arena)
	boom := errors.New("boom")
	n := 0
	err := o.Drain(func(k, v []byte) error {
		if n++; n == 200 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Drain returned %v, want the reader's error", err)
	}
	if arena.Used() != 0 {
		t.Fatalf("arena holds %d bytes after a failed drain, want 0", arena.Used())
	}
}

// TestOutputDrainReleasesSpill: under SpillAlways every sealed output page
// lives in the rank's spill file. Draining restores each page, hands its KVs
// over and frees it — page and spill copy — so by the end of the drain the
// spill file is gone, before Output.Free is even called.
func TestOutputDrainReleasesSpill(t *testing.T) {
	spillFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	arena := mem.NewArena(1 << 20)
	lines := spillLines(2000)
	w := mpi.NewWorld(mpi.Config{Size: 1, Net: testNet()})
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{Arena: arena, PageSize: 1 << 10, CommBuf: 4 << 10,
			SpillFS: spillFS, OutOfCore: SpillAlways})
		recs := make([]Record, len(lines))
		for i, l := range lines {
			recs[i] = Record{Val: []byte(l)}
		}
		out, err := job.Run(SliceInput(recs), wcMap, nil) // map-only: the output is the shuffled KVs
		if err != nil {
			return err
		}
		defer out.Free()
		spillName := job.store.Name()
		if out.Stats.Spill.SpilledBytes == 0 || spillFS.Size(spillName) == 0 {
			return fmt.Errorf("the output never reached the spill file (stats %+v)", out.Stats.Spill)
		}
		var words, midFile int64
		total := out.NumKV()
		err = out.Drain(func(k, v []byte) error {
			if words++; words == total/2 {
				midFile = spillFS.Size(spillName)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if words != total || words != int64(6*len(lines)) {
			return fmt.Errorf("drained %d KVs of %d, want %d", words, total, 6*len(lines))
		}
		if midFile == 0 {
			return fmt.Errorf("the spill file was gone halfway through the drain")
		}
		if size := spillFS.Size(spillName); size != 0 {
			return fmt.Errorf("spill file holds %d bytes after the drain, want none", size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if arena.Used() != 0 {
		t.Fatalf("arena holds %d bytes after the job, want 0", arena.Used())
	}
}

// wcReduceText is wcReduce with a decimal-text sum, so persisted golden
// output is printable.
func wcReduceText(key []byte, vals *kvbuf.ValueIter, emit Emitter) error {
	var sum uint64
	for v, ok := vals.Next(); ok; v, ok = vals.Next() {
		sum += BytesUint64(v)
	}
	return emit.Emit(key, []byte(fmt.Sprintf("%d", sum)))
}

// TestPersistedOutputGolden pins the exact Output iteration and Persist
// byte stream of a two-rank WordCount, so any change that reorders output
// fails loudly here.
func TestPersistedOutputGolden(t *testing.T) {
	const golden = "== rank 0 ==\n" +
		"the\t5\nquick\t1\nfox\t2\njumps\t1\npack\t1\nbox\t1\njugs\t1\nbarks\t1\n" +
		"and\t1\nboxing\t1\n" +
		"== rank 1 ==\n" +
		"brown\t1\nover\t1\nlazy\t1\ndog\t2\nmy\t1\nwith\t1\nfive\t2\ndozen\t1\n" +
		"liquor\t1\nruns\t1\nwizards\t1\njump\t1\nquickly\t1\n"

	const p = 2
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	outFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	persisted := make([]string, p)
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{Arena: arena, PageSize: 512})
		var mine []Record
		for i, l := range testText {
			if i%p == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out, err := job.Run(SliceInput(mine), wcMap, wcReduceText)
		if err != nil {
			return err
		}
		defer out.Free()
		name := fmt.Sprintf("out/rank%d", c.Rank())
		if err := out.Persist(outFS, c.Clock(), name); err != nil {
			return err
		}
		data, err := outFS.ReadAll(c.Clock(), name)
		if err != nil {
			return err
		}
		persisted[c.Rank()] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	var got string
	for r, s := range persisted {
		got += fmt.Sprintf("== rank %d ==\n%s", r, s)
	}
	if got != golden {
		t.Fatalf("persisted output diverges from golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
