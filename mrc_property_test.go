package mimir_test

// The MRC determinism battery: every driver job kind (terasort, pagerank,
// kmeans, bfs, and wordcount) must produce byte-identical canonical output
// whatever runs it — the in-process Local transport, a real loopback TCP
// mesh, or a fault-injected TCP mesh recovering from connection resets — in
// memory or spilling. The invariants doing the work: integer fixed-point
// arithmetic (reassociation by hot-key split/re-merge and partial reduction
// is exact), per-rank deterministic input regeneration, and
// canonical gather ordering. quick.Check drives the dataset seed; set
// MIMIR_PROP_SEED to reproduce a failing draw.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/faultinject"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
	"mimir/internal/transport"

	mathrand "math/rand"
)

// mrcBatteryJobs are the per-kind base configs: modest sizes so the full
// grid stays fast, every optimization the kind supports switched on (the
// battery then also covers split/re-merge and the combiner paths).
func mrcBatteryJobs() []driver.JobConfig {
	return []driver.JobConfig{
		{Kind: driver.JobTeraSort, Rows: 1 << 12, Hint: true},
		{Kind: driver.JobPageRank, Scale: 8, Hint: true, PR: true},
		{Kind: driver.JobKMeans, Points: 1 << 11, K: 5, Dims: 2, Hint: true, PR: true},
		{Kind: driver.JobBFS, Scale: 8, Hint: true},
		{Kind: driver.JobWordCount, TotalBytes: 1 << 16, Hint: true, PR: true},
	}
}

// mrcSpillCap is each kind's per-rank arena cap for the SpillWhenNeeded
// cells: above the non-spillable floor (resident vertex state / centroid
// sums plus container indexes), below the shuffled working set, so eviction
// genuinely engages (TestMRCSpillEngages pins that). TeraSort is the
// exception: its non-spillable sort block dominates the floor while the
// engine containers never outgrow any cap the block fits under, so its
// spill cell only exercises the policy, not eviction.
var mrcSpillCap = map[string]int64{
	driver.JobWordCount: 144 << 10,
	driver.JobTeraSort:  128 << 10,
	driver.JobPageRank:  44 << 10,
	driver.JobKMeans:    44 << 10,
	driver.JobBFS:       120 << 10,
}

// mrcSpillCfg applies a kind's spill cell to cfg. k-means and wordcount
// additionally drop partial reduction: with pr on their shuffled working
// set is one bucket entry per distinct key (nothing to evict), without it
// the aggregate holds one record per point / word occurrence — and pr never
// changes the output bytes, so the reference still applies.
func mrcSpillCfg(cfg driver.JobConfig) driver.JobConfig {
	cfg.OutOfCore = core.SpillWhenNeeded
	cfg.MemBytes = mrcSpillCap[cfg.Kind]
	if cfg.Kind == driver.JobKMeans || cfg.Kind == driver.JobWordCount {
		cfg.PR = false
	}
	return cfg
}

// mrcMesh builds a fresh in-process loopback TCP mesh. A non-empty faults
// spec switches every rank to fail-recover link handling and wraps its
// connections with a deterministic fault injector, so the job completes by
// reconnecting and replaying — the transport conformance builder's pattern.
func mrcMesh(size int, faults string) ([]transport.Transport, error) {
	var spec faultinject.Spec
	if faults != "" {
		var err error
		spec, err = faultinject.ParseSpec(faults)
		if err != nil {
			return nil, err
		}
	}
	cfg := func(rank int, addr string) transport.TCPConfig {
		c := transport.TCPConfig{
			Addr: addr, Rank: rank, Size: size,
			BootstrapTimeout: 30 * time.Second,
		}
		if faults != "" {
			c.Policy = transport.RetryTransient
			c.ReconnectWindow = 10 * time.Second
			c.BackoffBase = 5 * time.Millisecond
			inj := faultinject.New(spec, rank)
			c.WrapConn = inj.WrapConn
		}
		return c
	}
	b, err := transport.ListenTCP(cfg(0, "127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	trs := make([]transport.Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(cfg(r, b.Addr()))
			if err != nil {
				errs[r] = err
				return
			}
			trs[r] = tr
		}(r)
	}
	tr0, err := b.Accept()
	if err != nil {
		errs[0] = err
	} else {
		trs[0] = tr0
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return trs, nil
}

// runMRCJob runs one job and returns rank 0's canonical gathered output.
// mode is "local" (in-process world), "tcp" (fresh loopback mesh), or
// "tcp-fault" (loopback mesh with a reset injected on every rank's links,
// recovered under the fail-recover policy).
func runMRCJob(t *testing.T, cfg driver.JobConfig, mode string, sum *metrics.Summary) []byte {
	t.Helper()
	out, errs := runMRCJobErrs(t, cfg, mode, sum)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// runMRCJobErrs is runMRCJob returning each rank's error instead of failing
// the test: one error for the local world, one per rank over TCP.
func runMRCJobErrs(t *testing.T, cfg driver.JobConfig, mode string, sum *metrics.Summary) ([]byte, []error) {
	t.Helper()
	if mode == "local" {
		world := mpi.NewWorld(mpi.Config{Size: propWorldSize, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
		out, err := driver.RunJob(world, cfg, sum)
		return out, []error{err}
	}
	faults := ""
	if mode == "tcp-fault" {
		faults = "seed:42,reset:all@frame2"
	}
	trs, err := mrcMesh(propWorldSize, faults)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	errs := make([]error, propWorldSize)
	var wg sync.WaitGroup
	for r, tr := range trs {
		wg.Add(1)
		go func(r int, world *mpi.World) {
			defer wg.Done()
			defer world.Close()
			var s *metrics.Summary
			if r == 0 {
				s = sum
			}
			o, err := driver.RunJob(world, cfg, s)
			errs[r] = err
			if r == 0 {
				out = o
			}
		}(r, mpi.NewWorld(mpi.Config{Transport: tr}))
	}
	wg.Wait()
	return out, errs
}

// checkWorkersRefused asserts that every rank refuses a job configured with
// an out-of-range Workers value, with an error naming the field, instead of
// running it on one goroutine.
func checkWorkersRefused(t *testing.T, errs []error, workers int) {
	t.Helper()
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "Workers") {
			t.Errorf("rank %d: Workers=%d: err = %v, want the job refused with an error naming Workers", r, workers, err)
		}
	}
}

// mrcCell is one grid cell: a Workers value, an out-of-core policy, and a
// transport mode.
type mrcCell struct {
	workers int
	spill   bool
	mode    string
}

func (c mrcCell) name() string {
	ooc := "off"
	if c.spill {
		ooc = "spill"
	}
	return fmt.Sprintf("workers=%d/ooc=%s/%s", c.workers, ooc, c.mode)
}

// TestMRCJobDeterminism is the battery: for every job kind and grid cell
// with Workers=1, quick.Check draws dataset seeds and asserts the cell's
// output is byte-identical to the reference run (Local, Workers left at 0,
// in-memory): an explicit Workers=1 run, a spilling run, in-memory and
// spilling runs over TCP, and an in-memory run over faulted TCP. A rank
// runs on one goroutine, so the Workers=4 and Workers=8 cells assert the
// job is refused on every rank, on every transport and out-of-core policy,
// rather than run serially with the value ignored.
func TestMRCJobDeterminism(t *testing.T) {
	cells := []mrcCell{
		{1, false, "local"}, {4, false, "local"}, {8, false, "local"},
		{1, true, "local"}, {4, true, "local"}, {8, true, "local"},
		{1, false, "tcp"}, {1, true, "tcp"}, {8, true, "tcp"},
		{1, false, "tcp-fault"}, {8, false, "tcp-fault"},
	}
	maxCount := 2
	if testing.Short() {
		cells = []mrcCell{{1, false, "local"}, {1, true, "local"}, {8, true, "local"}}
		maxCount = 1
	}
	for _, base := range mrcBatteryJobs() {
		base := base
		t.Run(base.Kind, func(t *testing.T) {
			// The reference output per seed: every cell draws the same seed
			// sequence (same propSeed), so the cache saves re-running it.
			refs := map[uint64][]byte{}
			ref := func(seed uint64) []byte {
				if out, ok := refs[seed]; ok {
					return out
				}
				cfg := base
				cfg.Seed = seed
				cfg.PageSize = 1 << 10
				cfg.CommBuf = 8 << 10
				out := runMRCJob(t, cfg, "local", nil)
				if len(out) == 0 {
					t.Fatalf("seed %d: empty reference output", seed)
				}
				refs[seed] = out
				return out
			}
			for _, cl := range cells {
				cl := cl
				t.Run(cl.name(), func(t *testing.T) {
					if cl.workers > 1 {
						cfg := base
						cfg.Seed = uint64(propSeed(t))
						cfg.Workers = cl.workers
						if cl.spill {
							cfg = mrcSpillCfg(cfg)
						}
						_, errs := runMRCJobErrs(t, cfg, cl.mode, nil)
						checkWorkersRefused(t, errs, cl.workers)
						return
					}
					count := maxCount
					if cl.mode != "local" {
						count = 1 // fresh loopback mesh per draw: one is plenty
					}
					qc := &quick.Config{
						MaxCount: count,
						Rand:     mathrand.New(mathrand.NewSource(propSeed(t))),
					}
					err := quick.Check(func(seed uint64) bool {
						want := ref(seed)
						cfg := base
						cfg.Seed = seed
						cfg.Workers = cl.workers
						cfg.PageSize = 1 << 10
						cfg.CommBuf = 8 << 10
						if cl.spill {
							cfg = mrcSpillCfg(cfg)
						}
						got := runMRCJob(t, cfg, cl.mode, nil)
						if !bytes.Equal(got, want) {
							t.Errorf("seed %d: %s output diverges from reference (%d vs %d bytes)",
								seed, cl.name(), len(got), len(want))
							return false
						}
						return true
					}, qc)
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestMRCSpillEngages pins that the battery's spill cells actually spill:
// under each kind's tuned arena cap the SpillWhenNeeded run must report
// out-of-core traffic — otherwise the ooc=spill column is silently testing
// nothing. TeraSort is exempt (see mrcSpillCap): it still runs under the
// policy, but eviction structurally cannot engage at battery scale.
func TestMRCSpillEngages(t *testing.T) {
	for _, base := range mrcBatteryJobs() {
		cfg := base
		cfg.Seed = uint64(propSeed(t))
		cfg.PageSize = 1 << 10
		cfg.CommBuf = 8 << 10
		cfg = mrcSpillCfg(cfg)
		sum := metrics.NewSummary()
		out := runMRCJob(t, cfg, "local", sum)
		if len(out) == 0 {
			t.Errorf("%s: empty output", base.Kind)
			continue
		}
		sp := sum.Get("spilled-bytes")
		switch {
		case base.Kind == driver.JobTeraSort:
			// Policy-only cell: the run must succeed, spill traffic may be zero.
		case sp == nil || sp.Max == 0:
			t.Errorf("%s: no spill traffic under the %d-byte cap; tighten mrcSpillCap", base.Kind, cfg.MemBytes)
		default:
			t.Logf("%s: spilled up to %.0f bytes per rank", base.Kind, sp.Max)
		}
	}
}

// TestMRCFaultedRunRecovered pins that the tcp-fault cells genuinely
// recover from injected faults rather than never seeing one: the metrics
// must show at least one reconnect, and the output must still match the
// fault-free reference.
func TestMRCFaultedRunRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	base := mrcBatteryJobs()[1] // pagerank: many rounds, plenty of frames
	base.Seed = uint64(propSeed(t))
	base.PageSize = 1 << 10
	base.CommBuf = 8 << 10
	want := runMRCJob(t, base, "local", nil)
	sum := metrics.NewSummary()
	got := runMRCJob(t, base, "tcp-fault", sum)
	if !bytes.Equal(got, want) {
		t.Fatalf("faulted run diverges from reference (%d vs %d bytes)", len(got), len(want))
	}
	rec := sum.Get("net-reconnects")
	if rec == nil || rec.Max < 1 {
		t.Fatalf("metrics report no reconnects; the injected resets exercised nothing (series: %v)", sum.Names())
	}
	t.Logf("recovered: %v reconnects, replayed %v frames", rec.Max, sum.Get("net-replayed-frames").Max)
}
