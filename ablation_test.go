package mimir_test

// Ablation benchmarks for the design choices called out in DESIGN.md:
// the communication-buffer size behind the interleaved aggregate, the page
// granularity of the dynamic containers, and the delayed-vs-spill-derived
// KV compression drain. Each reports peak node memory and simulated job time
// as custom metrics alongside the usual ns/op.

import (
	"fmt"
	"sync"
	"testing"

	"mimir"
	"mimir/internal/mrmpi"
	"mimir/internal/workloads"
)

// ablationRun runs one WordCount and returns the node peak and simulated
// seconds. A positive capacity caps the node arena and lets the job spill
// when needed.
func ablationRun(dist workloads.Distribution, bytes, capacity int64, cfg func(*mimir.Config)) (peak int64, simT float64, err error) {
	const p = 8
	w := mimir.NewWorld(p)
	arena := mimir.NewArena(capacity)
	spillFS := mimir.Laptop().SpillFSFor(1)
	group := mimir.NewSpillGroup()
	err = w.Run(func(c *mimir.Comm) error {
		jc := mimir.Config{Arena: arena}
		if capacity > 0 {
			jc.OutOfCore, jc.SpillFS, jc.SpillGroup = mimir.SpillWhenNeeded, spillFS, group
		}
		if cfg != nil {
			cfg(&jc)
		}
		job := mimir.NewJob(c, jc)
		input := workloads.TextInput(nil, c.Clock(), dist, 42, bytes, c.Rank(), p)
		out, err := job.Run(input, workloads.WordCountMap, workloads.WordCountReduce)
		if err != nil {
			return err
		}
		out.Free()
		return nil
	})
	return arena.Peak(), w.MaxTime(), err
}

// ablationWC runs ablationRun once per iteration and reports peak memory
// and simulated seconds.
func ablationWC(b *testing.B, dist workloads.Distribution, bytes, capacity int64,
	cfg func(*mimir.Config)) {
	b.ReportAllocs()
	b.ResetTimer()
	var peak int64
	var simT float64
	for i := 0; i < b.N; i++ {
		var err error
		if peak, simT, err = ablationRun(dist, bytes, capacity, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(peak), "peak-bytes")
	b.ReportMetric(simT, "sim-sec")
}

// BenchmarkAblationCommBuf sweeps the send/receive buffer size: larger
// buffers mean fewer, bigger Alltoallv rounds (less latency, more memory) —
// the trade-off behind Mimir's interleaved aggregate.
func BenchmarkAblationCommBuf(b *testing.B) {
	for _, kb := range []int{8, 32, 64, 256} {
		b.Run(fmt.Sprintf("commbuf=%dKiB", kb), func(b *testing.B) {
			ablationWC(b, workloads.Uniform, 1<<20, 0, func(c *mimir.Config) {
				c.CommBuf = kb << 10
			})
		})
	}
}

// BenchmarkAblationPageSize sweeps the container page size: smaller pages
// track the live data more tightly (lower peak) at a higher allocation
// rate.
func BenchmarkAblationPageSize(b *testing.B) {
	for _, kb := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("page=%dKiB", kb), func(b *testing.B) {
			ablationWC(b, workloads.Uniform, 1<<20, 0, func(c *mimir.Config) {
				c.PageSize = kb << 10
			})
		})
	}
}

// BenchmarkAblationCombinerDrain compares the paper's delayed KV compression
// (aggregate deferred until the whole map output is compressed — its
// acknowledged shortcoming) against the drain the engine derives under a
// spill policy: on an arena capped at the delayed run's peak, the bucket
// drains whenever it outgrows its share of the headroom above the spill
// watermark. The skew-free data is where the bucket grows largest.
func BenchmarkAblationCombinerDrain(b *testing.B) {
	cps := func(jc *mimir.Config) { jc.Combiner = workloads.WordCountCombine }
	b.Run("delayed", func(b *testing.B) {
		ablationWC(b, workloads.Wikipedia, 1<<20, 0, cps)
	})
	b.Run("spill-derived", func(b *testing.B) {
		delayed, _, err := ablationRun(workloads.Wikipedia, 1<<20, 0, cps)
		if err != nil {
			b.Fatal(err)
		}
		ablationWC(b, workloads.Wikipedia, 1<<20, delayed, cps)
	})
}

// spillVariant is one engine/policy pair of the out-of-core ablation.
type spillVariant struct {
	name   string
	mimirP mimir.OutOfCore // used when mrmpiM < 0
	mrmpiM mrmpi.Mode      // -1 selects the Mimir engine
}

var spillVariants = []spillVariant{
	{"mimir/spill-when-needed", mimir.SpillWhenNeeded, -1},
	{"mimir/spill-always", mimir.SpillAlways, -1},
	{"mrmpi/spill-when-needed", 0, mrmpi.SpillWhenNeeded},
	{"mrmpi/spill-always", 0, mrmpi.SpillAlways},
	{"mrmpi/error", 0, mrmpi.ErrorIfExceeds},
}

// runSpillWC runs one WordCount on a bounded node arena shared by 4 ranks
// and returns the node peak, simulated seconds, and out-of-core write
// traffic. Costs and spill-FS characteristics are Comet's. Each framework
// runs at its own design point, as in the paper: Mimir with fine-grained
// dynamic pages (8 KiB), MR-MPI with the largest static page the node
// supports (64 KiB — its seven-page working set then fills 1.75 of the
// 2 MiB arena), mirroring the paper's best-performing "MR-MPI (512M)".
func runSpillWC(tb testing.TB, v spillVariant, totalBytes, capacity int64) (peak int64, simT float64, spilled int64, err error) {
	tb.Helper()
	const p = 4
	plat := mimir.Comet()
	w := mimir.NewWorldOn(plat, p)
	arena := mimir.NewArena(capacity)
	spillFS := mimir.NewFS(plat.SpillFS)
	group := mimir.NewSpillGroup()
	var mu sync.Mutex
	err = w.Run(func(c *mimir.Comm) error {
		var eng workloads.Engine
		if v.mrmpiM < 0 {
			me := workloads.NewMimirEngine(c, arena)
			me.PageSize = 8 << 10
			me.CommBuf = 16 << 10
			me.OutOfCore = v.mimirP
			me.SpillFS = spillFS
			me.SpillGroup = group
			me.Costs = plat.Costs()
			eng = me
		} else {
			mre := workloads.NewMRMPIEngine(c, arena, spillFS)
			mre.PageSize = 64 << 10
			mre.Mode = v.mrmpiM
			mre.Costs = plat.Costs()
			eng = mre
		}
		res, err := workloads.RunWordCount(eng, nil, workloads.WCConfig{
			Dist: workloads.Uniform, TotalBytes: totalBytes, Seed: 42,
		}, workloads.StageOpts{}, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		spilled += res.Stats.SpilledBytes
		mu.Unlock()
		return nil
	})
	return arena.Peak(), w.MaxTime(), spilled, err
}

// spillLadder crosses the 2 MiB ("2 GB") node arena: the first point runs
// in memory for every mode (including MR-MPI's error mode), the rest are
// ever deeper out of core.
var spillLadder = []struct {
	name  string
	bytes int64
}{
	{"128K", 128 << 10},
	{"1M", 1 << 20},
	{"4M", 4 << 20},
}

const spillArena = 2 << 20

// BenchmarkAblationSpill compares Mimir's page-eviction subsystem against
// MR-MPI's three out-of-core modes on the same bounded node arena as the
// dataset crosses the memory wall. Compare peak-bytes and sim-sec between
// the engine pairs at each size; spilled-bytes shows the write traffic each
// policy generates. MR-MPI's error mode skips the sizes it cannot run.
func BenchmarkAblationSpill(b *testing.B) {
	for _, pt := range spillLadder {
		for _, v := range spillVariants {
			b.Run(fmt.Sprintf("size=%s/%s", pt.name, v.name), func(b *testing.B) {
				b.ReportAllocs()
				var peak, spilled int64
				var simT float64
				for i := 0; i < b.N; i++ {
					var err error
					peak, simT, spilled, err = runSpillWC(b, v, pt.bytes, spillArena)
					if err != nil {
						if v.mrmpiM == mrmpi.ErrorIfExceeds || v.mimirP == mimir.Error {
							b.Skipf("OOM at %s (expected for the error policy): %v", pt.name, err)
						}
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(peak), "peak-bytes")
				b.ReportMetric(simT, "sim-sec")
				b.ReportMetric(float64(spilled), "spilled-bytes")
			})
		}
	}
}

// TestSpillPeakBelowMRMPI pins the ablation's headline: at every ladder
// point, Mimir's spill-when-needed completes with a node peak no higher
// than MR-MPI's spill-when-needed — the dynamic containers plus watermark
// eviction never hold more than MR-MPI's static pages.
func TestSpillPeakBelowMRMPI(t *testing.T) {
	for _, pt := range spillLadder {
		mPeak, _, _, err := runSpillWC(t, spillVariants[0], pt.bytes, spillArena)
		if err != nil {
			t.Fatalf("%s: mimir spill-when-needed: %v", pt.name, err)
		}
		bPeak, _, _, err := runSpillWC(t, spillVariants[2], pt.bytes, spillArena)
		if err != nil {
			t.Fatalf("%s: mrmpi spill-when-needed: %v", pt.name, err)
		}
		if mPeak > bPeak {
			t.Errorf("%s: Mimir spill peak %d exceeds MR-MPI %d", pt.name, mPeak, bPeak)
		}
	}
}

// BenchmarkAblationHintEncoding isolates the KV-hint's effect on an
// end-to-end job (bytes moved, memory held).
func BenchmarkAblationHintEncoding(b *testing.B) {
	b.Run("varlen", func(b *testing.B) {
		ablationWC(b, workloads.Wikipedia, 1<<20, 0, nil)
	})
	b.Run("hinted", func(b *testing.B) {
		ablationWC(b, workloads.Wikipedia, 1<<20, 0, func(c *mimir.Config) {
			c.Hint = workloads.WCHint()
		})
	})
}
