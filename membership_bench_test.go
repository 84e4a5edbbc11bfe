package mimir_test

// BENCH_membership pins the cost of checkpoint-driven rank rebalancing (the
// storage half of elastic membership): a WordCount checkpoint written at one
// world size is repartitioned to another, and the committed baseline records
// how many bytes actually ship and how long the simulated PFS takes. All
// figures are simulated (simtime clock over the pfs cost model), so they are
// byte-identical on any host and drift only when the accounting changes.
//
// Regenerate the committed baseline with:
//
//	MIMIR_BENCH_OUT=BENCH_membership.json go test -run TestMembershipBenchBaseline .

import (
	"fmt"
	"testing"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
	"mimir/internal/workloads"
)

// membershipPoint is one rebalance of the benchmark checkpoint.
type membershipPoint struct {
	From    int   `json:"from"`
	To      int   `json:"to"`
	Records int64 `json:"records"`
	BytesIn int64 `json:"bytes_in"`
	// BytesMoved is the payload whose rank assignment changed — what the
	// rebalance actually ships; same-rank records cost nothing.
	BytesMoved int64 `json:"bytes_moved"`
	// MovedFrac is BytesMoved / BytesIn. Growing N -> M reshuffles roughly
	// 1 - gcd-ish fractions of the keyspace; the committed values make the
	// "only the moved fraction pays" claim concrete.
	MovedFrac float64 `json:"moved_frac"`
	// RebalanceSec is the simulated seconds the repartition spent on the
	// PFS (reads of the old layout + staged writes of the new one).
	RebalanceSec float64 `json:"rebalance_sim_sec"`
	// SecPerGB normalizes RebalanceSec to a checkpoint gigabyte.
	SecPerGB float64 `json:"rebalance_sim_sec_per_gb"`
}

// seedMembershipCkpt writes the benchmark checkpoint: the checkpointed
// WordCount (1 MiB uniform corpus, WC hint) on a size-rank in-process world
// over the given PFS.
func seedMembershipCkpt(tb testing.TB, fs *pfs.FS, name string, size int) {
	tb.Helper()
	world := mpi.NewWorld(mpi.Config{Size: size, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
	_, err := driver.RunJob(world, driver.JobConfig{
		Dist:       workloads.Uniform,
		TotalBytes: 1 << 20,
		Seed:       42,
		Hint:       true,
		PR:         true,
		Checkpoint: &core.Checkpoint{FS: fs, Name: name},
	}, nil)
	if err != nil {
		tb.Fatalf("seeding checkpoint at size %d: %v", size, err)
	}
}

// runMembershipRebalance seeds a fresh checkpoint at from ranks and
// repartitions it to to ranks under a dedicated simulated clock.
func runMembershipRebalance(tb testing.TB, from, to int) membershipPoint {
	tb.Helper()
	// Checkpoints live on the spill-class file system: Comet's Lustre spill
	// bandwidth (internal/platform), so the seconds mean something.
	fs := pfs.New(pfs.Config{Bandwidth: 2e5, Latency: 2e-3})
	name := fmt.Sprintf("bench-%d-%d", from, to)
	seedMembershipCkpt(tb, fs, name, from)

	clock := simtime.NewClock()
	st, err := core.RepartitionCheckpoint(fs, clock, core.Checkpoint{FS: fs, Name: name},
		workloads.WCHint(), from, to, nil)
	if err != nil {
		tb.Fatalf("repartition %d -> %d: %v", from, to, err)
	}
	pt := membershipPoint{
		From: from, To: to,
		Records: st.Records, BytesIn: st.BytesIn, BytesMoved: st.BytesMoved,
		RebalanceSec: clock.Now(),
	}
	if st.BytesIn > 0 {
		pt.MovedFrac = float64(st.BytesMoved) / float64(st.BytesIn)
		pt.SecPerGB = pt.RebalanceSec * float64(1<<30) / float64(st.BytesIn)
	}
	return pt
}

// membershipSweep is the committed set of resizes: the acceptance pair
// (4 -> 6 grow, 6 -> 3 shrink via 4), a doubling, and a halving.
var membershipSweep = []struct{ from, to int }{
	{4, 6},
	{6, 3},
	{4, 8},
	{8, 4},
}

// BenchmarkMembershipRebalance reports the simulated rebalance figures the
// same way the ablation benchmarks do; ns/op is host-side bookkeeping only.
func BenchmarkMembershipRebalance(b *testing.B) {
	for _, sw := range membershipSweep {
		b.Run(fmt.Sprintf("%dto%d", sw.from, sw.to), func(b *testing.B) {
			b.ReportAllocs()
			var pt membershipPoint
			for i := 0; i < b.N; i++ {
				pt = runMembershipRebalance(b, sw.from, sw.to)
			}
			b.ReportMetric(pt.RebalanceSec, "rebalance-sim-sec")
			b.ReportMetric(pt.MovedFrac, "moved-frac")
		})
	}
}

// benchMembershipBaseline is the committed shape of BENCH_membership.json.
type benchMembershipBaseline struct {
	Benchmark string            `json:"benchmark"`
	Workload  string            `json:"workload"`
	Note      string            `json:"note"`
	Points    []membershipPoint `json:"points"`
}

func benchMembershipRun(tb testing.TB) benchMembershipBaseline {
	base := benchMembershipBaseline{
		Benchmark: "BenchmarkMembershipRebalance",
		Workload:  "WordCount uniform 1 MiB checkpoint (WC hint, PR), repartitioned across world sizes",
		Note: "All figures are simulated seconds on the pfs cost model under a dedicated " +
			"clock, so they are byte-identical on any host. bytes_moved counts only " +
			"records whose rank assignment changed; moved_frac is the fraction of the " +
			"checkpoint a resize actually ships.",
	}
	for _, sw := range membershipSweep {
		base.Points = append(base.Points, runMembershipRebalance(tb, sw.from, sw.to))
	}
	return base
}

// TestMembershipBenchBaseline regenerates the sweep and holds it against the
// committed BENCH_membership.json. The figures are machine-independent, so
// any drift is a real change to the rebalance's data movement or the PFS
// cost accounting. It also pins the structural claims: records conserved
// across every resize and strictly partial movement (a rebalance never ships
// the whole checkpoint).
func TestMembershipBenchBaseline(t *testing.T) {
	got := benchMembershipRun(t)
	for _, pt := range got.Points {
		if pt.Records <= 0 {
			t.Errorf("%d -> %d: no records rebalanced", pt.From, pt.To)
		}
		if pt.BytesMoved <= 0 || pt.BytesMoved >= pt.BytesIn {
			t.Errorf("%d -> %d: moved %d of %d bytes, want strictly partial movement",
				pt.From, pt.To, pt.BytesMoved, pt.BytesIn)
		}
		if pt.RebalanceSec <= 0 {
			t.Errorf("%d -> %d: rebalance took no simulated time", pt.From, pt.To)
		}
	}
	holdBaseline(t, "BENCH_membership.json", got)
}
