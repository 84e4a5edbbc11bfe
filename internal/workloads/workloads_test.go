package workloads

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mimir/internal/core"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

func testNet() simtime.NetworkModel { return simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9} }

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	c := newRNG(43)
	if a.next() == c.next() {
		t.Error("different seeds produced equal first draws (suspicious)")
	}
}

func TestRNGFloatRange(t *testing.T) {
	r := newRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64() = %v out of [0,1)", f)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := newRNG(7)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.normal()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestZipfSkew(t *testing.T) {
	r := newRNG(3)
	z := newZipf(r, wikipediaSkew, 1<<20)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.sample()
		if k < 1 || k > 1<<20 {
			t.Fatalf("zipf sample %d out of range", k)
		}
		counts[k]++
	}
	// Rank 1 must be far more popular than rank 100.
	if counts[1] < 10*counts[100] {
		t.Errorf("zipf skew too weak: count(1)=%d count(100)=%d", counts[1], counts[100])
	}
	// And the head must dominate: top-10 ranks should hold >20% of the mass.
	var head int
	for k := uint64(1); k <= 10; k++ {
		head += counts[k]
	}
	if head < n/5 {
		t.Errorf("zipf head mass = %d/%d, want > 20%%", head, n)
	}
}

func TestTextInputProducesRequestedBytes(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Wikipedia} {
		var got int64
		in := TextInput(nil, nil, dist, 1, 10000, 0, 1)
		err := in(func(rec core.Record) error {
			got += int64(len(rec.Val))
			for _, w := range strings.Fields(string(rec.Val)) {
				if len(w) == 0 {
					t.Fatal("empty word")
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Lines stop at a word boundary, so allow one word of overshoot.
		if got < 10000 || got > 10000+64 {
			t.Errorf("%v: produced %d bytes, want ~10000", dist, got)
		}
	}
}

func TestTextInputSplitsAcrossRanks(t *testing.T) {
	var total int64
	for rank := 0; rank < 3; rank++ {
		in := TextInput(nil, nil, Uniform, 1, 10000, rank, 3)
		_ = in(func(rec core.Record) error {
			total += int64(len(rec.Val))
			return nil
		})
	}
	if total < 10000 || total > 10000+3*64 {
		t.Errorf("3-rank total = %d, want ~10000", total)
	}
}

func TestTextInputChargesIO(t *testing.T) {
	fs := pfs.New(pfs.Config{Bandwidth: 1e3})
	clock := simtime.NewClock()
	in := TextInput(fs, clock, Uniform, 1, 4096, 0, 1)
	if err := in(func(core.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if clock.Spent(simtime.IO) == 0 {
		t.Error("input read charged no IO time")
	}
}

func TestWikipediaMoreSkewedThanUniform(t *testing.T) {
	// Count word frequencies; Wikipedia's top word must dominate far more.
	topShare := func(dist Distribution) float64 {
		counts := map[string]int{}
		total := 0
		in := TextInput(nil, nil, dist, 5, 1<<16, 0, 1)
		_ = in(func(rec core.Record) error {
			for _, w := range strings.Fields(string(rec.Val)) {
				counts[w]++
				total++
			}
			return nil
		})
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(total)
	}
	u, w := topShare(Uniform), topShare(Wikipedia)
	if w < 4*u {
		t.Errorf("Wikipedia top-word share %v not >> Uniform %v", w, u)
	}
}

// refWordCount regenerates the same dataset serially and counts by map.
func refWordCount(dist Distribution, seed uint64, total int64, nranks int) (unique int64, words uint64) {
	counts := map[string]uint64{}
	for rank := 0; rank < nranks; rank++ {
		in := TextInput(nil, nil, dist, seed, total, rank, nranks)
		_ = in(func(rec core.Record) error {
			for _, w := range strings.Fields(string(rec.Val)) {
				counts[w]++
				words++
			}
			return nil
		})
	}
	return int64(len(counts)), words
}

type engines struct {
	name  string
	build func(c *mpi.Comm, arena *mem.Arena, spill *pfs.FS) Engine
}

func bothEngines() []engines {
	return []engines{
		{"Mimir", func(c *mpi.Comm, a *mem.Arena, s *pfs.FS) Engine { return NewMimirEngine(c, a) }},
		{"MR-MPI", func(c *mpi.Comm, a *mem.Arena, s *pfs.FS) Engine { return NewMRMPIEngine(c, a, s) }},
	}
}

func TestWordCountBothEngines(t *testing.T) {
	const p = 4
	cfg := WCConfig{Dist: Uniform, TotalBytes: 1 << 15, Seed: 11}
	wantUnique, wantWords := refWordCount(cfg.Dist, cfg.Seed, cfg.TotalBytes, p)
	for _, eng := range bothEngines() {
		t.Run(eng.name, func(t *testing.T) {
			w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
			arena := mem.NewArena(0)
			spill := pfs.New(pfs.Config{Bandwidth: 1e9})
			var unique int64
			var words uint64
			results := make([]WCResult, p)
			err := w.Run(func(c *mpi.Comm) error {
				res, err := RunWordCount(eng.build(c, arena, spill), nil, cfg, StageOpts{}, nil)
				results[c.Rank()] = res
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				unique += r.UniqueWords
				words += r.TotalWords
			}
			if unique != wantUnique || words != wantWords {
				t.Errorf("unique=%d words=%d, want %d/%d", unique, words, wantUnique, wantWords)
			}
		})
	}
}

func TestWordCountOptimizationLadderAgrees(t *testing.T) {
	const p = 3
	cfg := WCConfig{Dist: Wikipedia, TotalBytes: 1 << 14, Seed: 9}
	wantUnique, wantWords := refWordCount(cfg.Dist, cfg.Seed, cfg.TotalBytes, p)
	ladder := map[string]StageOpts{
		"baseline":    {},
		"hint":        {Hint: WCHint()},
		"hint;pr":     {Hint: WCHint(), PartialReduce: WordCountCombine},
		"hint;pr;cps": {Hint: WCHint(), PartialReduce: WordCountCombine, Combiner: WordCountCombine},
		"cps-only":    {Combiner: WordCountCombine},
		"pr-only":     {PartialReduce: WordCountCombine},
	}
	for name, opts := range ladder {
		t.Run(name, func(t *testing.T) {
			w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
			arena := mem.NewArena(0)
			var unique int64
			var words uint64
			results := make([]WCResult, p)
			err := w.Run(func(c *mpi.Comm) error {
				res, err := RunWordCount(NewMimirEngine(c, arena), nil, cfg, opts, nil)
				results[c.Rank()] = res
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				unique += r.UniqueWords
				words += r.TotalWords
			}
			if unique != wantUnique || words != wantWords {
				t.Errorf("unique=%d words=%d, want %d/%d", unique, words, wantUnique, wantWords)
			}
		})
	}
}

func TestOctreeKeys(t *testing.T) {
	k := octKey(3, 0.6, 0.3, 0.9)
	if int(k>>56) != 3 {
		t.Errorf("level bits = %d, want 3", k>>56)
	}
	pk := parentKey(k)
	if int(pk>>56) != 2 {
		t.Errorf("parent level = %d, want 2", pk>>56)
	}
	if pk != octKey(2, 0.6, 0.3, 0.9) {
		t.Errorf("parentKey mismatch: %x vs %x", pk, octKey(2, 0.6, 0.3, 0.9))
	}
	if parentKey(octKey(1, 0.6, 0.3, 0.9)) != 0 {
		t.Error("level-1 parent should be the root sentinel 0")
	}
}

func TestGenPointsShares(t *testing.T) {
	var total int
	for rank := 0; rank < 3; rank++ {
		pts := genPoints(1, 100, rank, 3)
		total += len(pts)
		for _, p := range pts {
			for _, c := range p {
				if c < 0 || c >= 1 {
					t.Fatalf("point coordinate %v out of [0,1)", c)
				}
			}
		}
	}
	if total != 100 {
		t.Errorf("total points = %d, want 100", total)
	}
}

func TestOctreeBothEnginesAgree(t *testing.T) {
	const p = 3
	cfg := OCConfig{TotalPoints: 1 << 12, Seed: 21, MaxLevel: 5}
	var results []OCResult
	for _, eng := range bothEngines() {
		w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
		arena := mem.NewArena(0)
		spill := pfs.New(pfs.Config{Bandwidth: 1e9})
		res := make([]OCResult, p)
		err := w.Run(func(c *mpi.Comm) error {
			r, err := RunOctree(eng.build(c, arena, spill), nil, cfg, StageOpts{})
			res[c.Rank()] = r
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		results = append(results, res[0])
		if arena.Used() != 0 {
			t.Errorf("%s: arena used %d after OC", eng.name, arena.Used())
		}
	}
	if results[0].Levels != results[1].Levels || results[0].TotalDense != results[1].TotalDense {
		t.Errorf("engines disagree: Mimir %+v, MR-MPI %+v", results[0], results[1])
	}
	if results[0].Levels < 2 || results[0].TotalDense == 0 {
		t.Errorf("octree did not refine: %+v", results[0])
	}
}

func TestOctreeOptimizationsAgree(t *testing.T) {
	const p = 2
	cfg := OCConfig{TotalPoints: 1 << 11, Seed: 33, MaxLevel: 4}
	var base OCResult
	for i, opts := range []StageOpts{
		{},
		{Hint: OCHint(), PartialReduce: WordCountCombine, Combiner: WordCountCombine},
	} {
		w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
		arena := mem.NewArena(0)
		res := make([]OCResult, p)
		err := w.Run(func(c *mpi.Comm) error {
			r, err := RunOctree(NewMimirEngine(c, arena), nil, cfg, opts)
			res[c.Rank()] = r
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res[0]
		} else if res[0].Levels != base.Levels || res[0].DenseOctants != base.DenseOctants ||
			res[0].TotalDense != base.TotalDense {
			t.Errorf("optimized OC differs: %+v vs %+v", res[0], base)
		}
	}
}

// refBFS runs a serial BFS over the same generated edges.
func refBFS(cfg BFSConfig, nranks int) (visited int64, depth int) {
	adj := map[uint64][]uint64{}
	for rank := 0; rank < nranks; rank++ {
		for _, e := range genEdges(cfg.Seed, cfg.Scale, cfg.EdgeFactor, rank, nranks) {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
	root := cfg.Root % (1 << uint(cfg.Scale))
	seen := map[uint64]bool{root: true}
	frontier := []uint64{root}
	for len(frontier) > 0 {
		depth++
		var next []uint64
		for _, u := range frontier {
			for _, w := range adj[u] {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return int64(len(seen)), depth
}

func TestBFSBothEnginesMatchReference(t *testing.T) {
	const p = 3
	cfg := BFSConfig{Scale: 8, EdgeFactor: 8, Seed: 17, Root: 0, Validate: true}
	wantVisited, _ := refBFS(cfg, p)
	for _, eng := range bothEngines() {
		t.Run(eng.name, func(t *testing.T) {
			w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
			arena := mem.NewArena(0)
			spill := pfs.New(pfs.Config{Bandwidth: 1e9})
			res := make([]BFSResult, p)
			err := w.Run(func(c *mpi.Comm) error {
				r, err := RunBFS(eng.build(c, arena, spill), nil, cfg, StageOpts{}, MultiRound{})
				res[c.Rank()] = r
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Visited != wantVisited {
				t.Errorf("visited = %d, want %d", res[0].Visited, wantVisited)
			}
			if res[0].Visited < 100 {
				t.Errorf("suspiciously small component: %d", res[0].Visited)
			}
			if arena.Used() != 0 {
				t.Errorf("arena used %d after BFS", arena.Used())
			}
		})
	}
}

func TestBFSWithOptimizations(t *testing.T) {
	const p = 2
	cfg := BFSConfig{Scale: 7, EdgeFactor: 8, Seed: 29, Root: 3, Validate: true}
	wantVisited, _ := refBFS(cfg, p)
	for _, opts := range []StageOpts{
		{Hint: BFSHint()},
		{Hint: BFSHint(), Combiner: BFSCombine},
	} {
		w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
		arena := mem.NewArena(0)
		res := make([]BFSResult, p)
		err := w.Run(func(c *mpi.Comm) error {
			r, err := RunBFS(NewMimirEngine(c, arena), nil, cfg, opts, MultiRound{})
			res[c.Rank()] = r
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Visited != wantVisited {
			t.Errorf("opts %+v: visited = %d, want %d", opts, res[0].Visited, wantVisited)
		}
	}
}

func TestBFSCompressionReducesShuffle(t *testing.T) {
	const p = 2
	cfg := BFSConfig{Scale: 8, EdgeFactor: 16, Seed: 41}
	run := func(opts StageOpts) int64 {
		w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
		arena := mem.NewArena(0)
		res := make([]BFSResult, p)
		err := w.Run(func(c *mpi.Comm) error {
			r, err := RunBFS(NewMimirEngine(c, arena), nil, cfg, opts, MultiRound{})
			res[c.Rank()] = r
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Stats.ShuffledBytes + res[1].Stats.ShuffledBytes
	}
	base := run(StageOpts{Hint: BFSHint()})
	cps := run(StageOpts{Hint: BFSHint(), Combiner: BFSCombine})
	if cps >= base {
		t.Errorf("cps shuffle %d not < baseline %d (R-MAT has duplicate edges)", cps, base)
	}
}

func TestRMATPowerLaw(t *testing.T) {
	edges := genEdges(1, 10, 16, 0, 1)
	if len(edges) != 16<<10 {
		t.Fatalf("edges = %d, want %d", len(edges), 16<<10)
	}
	deg := map[uint64]int{}
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	max, sum := 0, 0
	for _, d := range deg {
		if d > max {
			max = d
		}
		sum += d
	}
	avg := float64(sum) / float64(len(deg))
	if float64(max) < 8*avg {
		t.Errorf("max degree %d vs avg %.1f: not scale-free enough", max, avg)
	}
}

func TestVertexOwnerStable(t *testing.T) {
	for v := uint64(0); v < 100; v++ {
		o := vertexOwner(v, 7)
		if o < 0 || o >= 7 {
			t.Fatalf("owner %d out of range", o)
		}
		if o != vertexOwner(v, 7) {
			t.Fatal("owner not deterministic")
		}
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "Uniform" || Wikipedia.String() != "Wikipedia" {
		t.Error("Distribution.String mismatch")
	}
}

func TestWordForDeterministic(t *testing.T) {
	a := wordFor(nil, 12345, Wikipedia)
	b := wordFor(nil, 12345, Wikipedia)
	if string(a) != string(b) {
		t.Error("wordFor not deterministic")
	}
	if len(wordFor(nil, 3, Wikipedia)) > len(wordFor(nil, 999999, Wikipedia)) {
		t.Error("popular Wikipedia words should be short")
	}
}

func TestEngineNames(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Size: 1, Net: testNet()})
	arena := mem.NewArena(0)
	spill := pfs.New(pfs.Config{})
	err := w.Run(func(c *mpi.Comm) error {
		if NewMimirEngine(c, arena).Name() != "Mimir" {
			return fmt.Errorf("bad Mimir name")
		}
		if NewMRMPIEngine(c, arena, spill).Name() != "MR-MPI" {
			return fmt.Errorf("bad MR-MPI name")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
