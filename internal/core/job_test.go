package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
)

func testNet() simtime.NetworkModel { return simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9} }

// wcMap splits a text record into words emitting (word, 1).
func wcMap(rec Record, emit Emitter) error {
	for _, w := range strings.Fields(string(rec.Val)) {
		if err := emit.Emit([]byte(w), Uint64Bytes(1)); err != nil {
			return err
		}
	}
	return nil
}

// wcReduce sums the counts of one word.
func wcReduce(key []byte, vals *kvbuf.ValueIter, emit Emitter) error {
	var sum uint64
	for v, ok := vals.Next(); ok; v, ok = vals.Next() {
		sum += BytesUint64(v)
	}
	return emit.Emit(key, Uint64Bytes(sum))
}

// wcCombine merges two counts (used as both Combiner and PartialReduce).
func wcCombine(_ []byte, existing, incoming []byte) ([]byte, error) {
	return Uint64Bytes(BytesUint64(existing) + BytesUint64(incoming)), nil
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

// runWC executes WordCount on p ranks under cfg-modifier and returns the
// merged result across ranks.
func runWC(t *testing.T, p int, lines []string, modify func(*Config)) map[string]uint64 {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	got := map[string]uint64{}
	err := w.Run(func(c *mpi.Comm) error {
		cfg := Config{Arena: arena}
		if modify != nil {
			modify(&cfg)
		}
		job := NewJob(c, cfg)
		// Stripe lines across ranks.
		var mine []Record
		for i, l := range lines {
			if i%p == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out, err := job.Run(SliceInput(mine), wcMap, wcReduce)
		if err != nil {
			return err
		}
		defer out.Free()
		mu.Lock()
		defer mu.Unlock()
		return out.Scan(func(k, v []byte) error {
			got[string(k)] += BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	if used := arena.Used(); used != 0 {
		t.Fatalf("arena used %d after job, want 0 (buffer leak)", used)
	}
	return got
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

func TestWordCountBaseline(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			checkWC(t, runWC(t, p, testText, nil), refWordCount(testText))
		})
	}
}

func TestWordCountWithHint(t *testing.T) {
	got := runWC(t, 3, testText, func(cfg *Config) {
		cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
	})
	checkWC(t, got, refWordCount(testText))
}

func TestWordCountWithPartialReduce(t *testing.T) {
	got := runWC(t, 3, testText, func(cfg *Config) { cfg.PartialReduce = wcCombine })
	checkWC(t, got, refWordCount(testText))
}

func TestWordCountWithCompression(t *testing.T) {
	got := runWC(t, 3, testText, func(cfg *Config) { cfg.Combiner = wcCombine })
	checkWC(t, got, refWordCount(testText))
}

func TestWordCountFullLadder(t *testing.T) {
	got := runWC(t, 4, testText, func(cfg *Config) {
		cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
		cfg.PartialReduce = wcCombine
		cfg.Combiner = wcCombine
	})
	checkWC(t, got, refWordCount(testText))
}

func TestManyExchangeRounds(t *testing.T) {
	// A tiny comm buffer forces the map to suspend for many aggregate
	// rounds; results must be unaffected and rounds must exceed one.
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = fmt.Sprintf("word%d common filler text line number %d", i%10, i)
	}
	w := mpi.NewWorld(mpi.Config{Size: 4, Net: testNet()})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	got := map[string]uint64{}
	maxRounds := 0
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{Arena: arena, CommBuf: 4 * MinPartition})
		var mine []Record
		for i, l := range lines {
			if i%4 == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out, err := job.Run(SliceInput(mine), wcMap, wcReduce)
		if err != nil {
			return err
		}
		defer out.Free()
		mu.Lock()
		defer mu.Unlock()
		if out.Stats.Rounds > maxRounds {
			maxRounds = out.Stats.Rounds
		}
		return out.Scan(func(k, v []byte) error {
			got[string(k)] += BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, got, refWordCount(lines))
	if maxRounds < 2 {
		t.Errorf("rounds = %d, want >= 2 (map should have been suspended)", maxRounds)
	}
}

func TestMapOnlyJob(t *testing.T) {
	// Without a reduce callback, the job output is the post-shuffle KV set;
	// every KV with the same key must land on the same rank.
	const p = 4
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	owner := make(map[string]int)
	var mu sync.Mutex
	err := w.Run(func(c *mpi.Comm) error {
		job := NewJob(c, Config{Arena: arena})
		in := SliceInput([]Record{{Val: []byte("alpha beta gamma delta alpha beta")}})
		out, err := job.Run(in, wcMap, nil)
		if err != nil {
			return err
		}
		defer out.Free()
		mu.Lock()
		defer mu.Unlock()
		return out.Scan(func(k, v []byte) error {
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
	if len(owner) != 4 {
		t.Errorf("unique keys = %d, want 4", len(owner))
	}
}

func TestIterativeTwoStage(t *testing.T) {
	// Stage 1: WordCount. Stage 2: histogram the counts (count-of-counts),
	// consuming stage 1's output via AsInput.
	const p = 3
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(0)
	var mu sync.Mutex
	hist := map[string]uint64{}
	err := w.Run(func(c *mpi.Comm) error {
		var mine []Record
		for i, l := range testText {
			if i%p == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out1, err := NewJob(c, Config{Arena: arena}).Run(SliceInput(mine), wcMap, wcReduce)
		if err != nil {
			return err
		}
		histMap := func(rec Record, emit Emitter) error {
			// key: the count value; value: 1 occurrence.
			return emit.Emit(rec.Val, Uint64Bytes(1))
		}
		out2, err := NewJob(c, Config{Arena: arena}).Run(out1.AsInput(), histMap, wcReduce)
		if err != nil {
			return err
		}
		defer out2.Free()
		mu.Lock()
		defer mu.Unlock()
		return out2.Scan(func(k, v []byte) error {
			hist[fmt.Sprint(BytesUint64(k))] += BytesUint64(v)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]uint64{}
	for _, n := range refWordCount(testText) {
		ref[fmt.Sprint(n)]++
	}
	if len(hist) != len(ref) {
		t.Fatalf("histogram = %v, want %v", hist, ref)
	}
	for k, n := range ref {
		if hist[k] != n {
			t.Errorf("hist[%s] = %d, want %d", k, hist[k], n)
		}
	}
	if arena.Used() != 0 {
		t.Errorf("arena used %d after two stages", arena.Used())
	}
}

func TestOOMPropagates(t *testing.T) {
	// An arena too small for the communication buffers must fail cleanly on
	// every rank.
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	arena := mem.NewArena(1024) // < 2 * CommBuf
	err := w.Run(func(c *mpi.Comm) error {
		_, err := NewJob(c, Config{Arena: arena}).Run(
			SliceInput([]Record{{Val: []byte("a b c")}}), wcMap, wcReduce)
		return err
	})
	if err == nil || !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	arena := mem.NewArena(0)
	boom := errors.New("map failed")
	err := w.Run(func(c *mpi.Comm) error {
		_, err := NewJob(c, Config{Arena: arena}).Run(
			SliceInput([]Record{{Val: []byte("x")}}),
			func(Record, Emitter) error { return boom },
			wcReduce)
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	arena := mem.NewArena(0)
	boom := errors.New("reduce failed")
	err := w.Run(func(c *mpi.Comm) error {
		_, err := NewJob(c, Config{Arena: arena}).Run(
			SliceInput([]Record{{Val: []byte("x y z")}}),
			wcMap,
			func([]byte, *kvbuf.ValueIter, Emitter) error { return boom })
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestOversizedKVRejected: a KV larger than a send partition or a page is
// rejected when it is emitted, on every rank that emits it, with an error
// naming both limits — none of the ranks hangs waiting for another. The
// 4 KiB KV of the second row fits its partition but not its page, so
// without the emit-time bound only its receiver would fail. The last two
// rows pin the aggregate's layout at its boundary: with 3 ranks a send
// partition is CommBuf/(3·3) bytes, so a KV encoding to exactly that is
// accepted and one byte more is not.
func TestOversizedKVRejected(t *testing.T) {
	// The default hint encodes a KV as two 4-byte length headers plus the
	// key and value bytes.
	const part3 = (64 << 10) / (3 * 3) // 7281
	for _, tc := range []struct {
		name              string
		ranks             int
		commBuf, pageSize int
		keyBytes          int
		wantErr           bool
	}{
		{"ranks=1/page=0", 1, MinPartition, 0, 2 * MinPartition, true},
		{"ranks=2/page=1024", 2, 64 << 10, 1 << 10, 4 << 10, true},
		{"ranks=3/kv=partition", 3, 64 << 10, 0, part3 - 8, false},
		{"ranks=3/kv=partition+1", 3, 64 << 10, 0, part3 - 8 + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mpi.NewWorld(mpi.Config{Size: tc.ranks, Net: testNet()})
			arena := mem.NewArena(0)
			errs := make([]error, tc.ranks)
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.Run(func(c *mpi.Comm) error {
					job := NewJob(c, Config{Arena: arena, CommBuf: tc.commBuf, PageSize: tc.pageSize})
					big := bytes.Repeat([]byte("x"), tc.keyBytes)
					out, err := job.Run(SliceInput([]Record{{Val: big}}),
						func(rec Record, emit Emitter) error { return emit.Emit(rec.Val, nil) },
						nil)
					errs[c.Rank()] = err
					if err != nil {
						return err
					}
					out.Free()
					return nil
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("job hung on an oversized KV")
			}
			for rank, err := range errs {
				if !tc.wantErr {
					if err != nil {
						t.Errorf("rank %d: err = %v, want the KV accepted", rank, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), "send partition") || !strings.Contains(err.Error(), "PageSize") {
					t.Errorf("rank %d: err = %v, want a rejection naming the send partition and PageSize", rank, err)
				}
			}
		})
	}
}

func TestCompressionReducesShuffledBytes(t *testing.T) {
	// Highly repetitive data: compression must cut shuffled bytes sharply.
	lines := make([]string, 32)
	for i := range lines {
		lines[i] = strings.Repeat("same words repeated constantly ", 4)
	}
	shuffled := func(modify func(*Config)) int64 {
		w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
		arena := mem.NewArena(0)
		var mu sync.Mutex
		var total int64
		err := w.Run(func(c *mpi.Comm) error {
			cfg := Config{Arena: arena}
			if modify != nil {
				modify(&cfg)
			}
			var mine []Record
			for i, l := range lines {
				if i%2 == c.Rank() {
					mine = append(mine, Record{Val: []byte(l)})
				}
			}
			out, err := NewJob(c, cfg).Run(SliceInput(mine), wcMap, wcReduce)
			if err != nil {
				return err
			}
			defer out.Free()
			mu.Lock()
			total += out.Stats.ShuffledBytes
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	base := shuffled(nil)
	cps := shuffled(func(cfg *Config) { cfg.Combiner = wcCombine })
	if cps*4 > base {
		t.Errorf("compressed shuffle %d not << baseline %d", cps, base)
	}
}

func TestHintReducesMapOutBytes(t *testing.T) {
	// The Fig 7 effect: the 8-byte header disappears under the hint.
	run := func(hint kvbuf.Hint) int64 {
		var total int64
		w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
		arena := mem.NewArena(0)
		var mu sync.Mutex
		err := w.Run(func(c *mpi.Comm) error {
			out, err := NewJob(c, Config{Arena: arena, Hint: hint}).Run(
				SliceInput([]Record{{Val: []byte(testText[c.Rank()])}}), wcMap, wcReduce)
			if err != nil {
				return err
			}
			defer out.Free()
			mu.Lock()
			total += out.Stats.MapOutBytes
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	def := run(kvbuf.DefaultHint())
	hinted := run(kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)})
	if hinted >= def {
		t.Errorf("hinted bytes %d >= default %d", hinted, def)
	}
}

// Property: the WordCount result is identical across rank counts, page
// sizes, and the full optimization ladder.
func TestResultInvariance(t *testing.T) {
	f := func(seed uint16) bool {
		// Build a small random corpus.
		nLines := int(seed%8) + 1
		lines := make([]string, nLines)
		for i := range lines {
			var sb strings.Builder
			for j := 0; j < int(seed%16)+1; j++ {
				fmt.Fprintf(&sb, "w%d ", (int(seed)+i*j)%7)
			}
			lines[i] = sb.String()
		}
		want := refWordCount(lines)
		configs := []func(*Config){
			nil,
			func(cfg *Config) { cfg.PageSize = 128 },
			func(cfg *Config) { cfg.Combiner = wcCombine },
			func(cfg *Config) { cfg.PartialReduce = wcCombine },
			func(cfg *Config) {
				cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
				cfg.Combiner = wcCombine
				cfg.PartialReduce = wcCombine
			},
		}
		for _, p := range []int{1, 3} {
			for _, mod := range configs {
				got := runWC(t, p, lines, mod)
				if len(got) != len(want) {
					return false
				}
				for w, n := range want {
					if got[w] != n {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 2, Net: testNet()})
	arena := mem.NewArena(0)
	err := w.Run(func(c *mpi.Comm) error {
		out, err := NewJob(c, Config{Arena: arena}).Run(
			SliceInput([]Record{{Val: []byte(testText[c.Rank()])}}), wcMap, wcReduce)
		if err != nil {
			return err
		}
		defer out.Free()
		s := out.Stats
		if s.Rounds < 1 || s.MapOutKVs == 0 || s.MapOutBytes == 0 {
			return fmt.Errorf("stats not populated: %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewJobRequiresArena(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewJob without arena did not panic")
		}
	}()
	NewJob(nil, Config{})
}
