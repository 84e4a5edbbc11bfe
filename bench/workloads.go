package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"mimir"
	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/jobsvc"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/membership"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

// sizes fixes every workload's input size. The full preset makes one job
// take 0.1–0.4 s on a 2-core host, so a run of a few seconds times dozens
// of jobs and reports a steady median; quick shrinks everything for the
// smoke test.
type sizes struct {
	wcBytes      int64 // wordcount corpus, all ranks
	spillCap     int64 // wc_spill's per-rank arena cap
	shuffleWords int   // shuffle_* words, all ranks
	teraRows     int64
	prScale      int
	prEdgeFactor int
	prRounds     int   // PageRank rounds (a fixed count: the cap is below convergence)
	smallBytes   int64 // mimird_small_jobs corpus per job
	smallBatch   int   // submissions per allocation sample
	probeKVs     int   // KVs per unit-cost probe call
}

var (
	fullSizes = sizes{
		wcBytes: 8 << 20, spillCap: 6 << 20, shuffleWords: 1 << 20,
		teraRows: 1 << 17, prScale: 13, prEdgeFactor: 8, prRounds: 8,
		smallBytes: 64 << 10, smallBatch: 25, probeKVs: 1 << 16,
	}
	quickSizes = sizes{
		wcBytes: 1 << 20, spillCap: 1280 << 10, shuffleWords: 1 << 16,
		teraRows: 1 << 13, prScale: 9, prEdgeFactor: 8, prRounds: 4,
		smallBytes: 16 << 10, smallBatch: 5, probeKVs: 1 << 13,
	}
)

// jobResult is what one verified job reports.
type jobResult struct {
	rep  int     // the job's ordinal within a traced pass
	wall float64 // seconds from call to verified result on every rank
	// sum holds every rank's engine counters and wall-clock phase seconds
	// under the names workloads.StageStats.Record uses.
	sum *metrics.Summary
	// arenaPeak is the sum over ranks of Arena.Peak — one node holds every
	// rank here, and the sum does not move with how a sampled partition
	// splits the keys between them. It is this job's where the benchmark
	// owns the arenas, the rig's set-up replica's where the driver or the
	// daemon builds them out of reach.
	arenaPeak int64
	// queueWait and run split a daemon job at its running event.
	queueWait, run float64
	// simulated marks a job whose ranks ran on simulated clocks (the daemon's
	// Local mesh): sum's phase seconds are then not wall time.
	simulated bool
	// driver marks a job that ran through driver.RunJob, where wall time
	// beyond the engine phases is the driver's own.
	driver bool
}

// rig is one workload set up and ready to run jobs back to back.
type rig interface {
	// job runs one job and checks its output against the reference computed
	// at set-up.
	job() (jobResult, error)
	// volume is the input bytes and map-output KVs of one job, all ranks
	// (kvs is 0 where the driver hides it).
	volume() (inputBytes, kvs int64)
	// inputSeconds runs the slowest rank's input generator alone against a
	// no-op emit; 0 where the generator is internal to the driver.
	inputSeconds() float64
	close()
}

type workload struct {
	name string
	// batch is how many jobs share one allocation sample (GC and MemStats
	// reads bracket a batch, not every 6 ms job).
	batch func(sizes) int
	build func(seed uint64, sz sizes, tr *tracer) (rig, error)
}

func one(sizes) int { return 1 }

// workloadTable lists the workloads in BENCHMARK.json's order; the names are
// permanent.
var workloadTable = []workload{
	{"wc_uniform", one, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		return newWCRig(wcUniform(seed, sz), benchRanks, tr)
	}},
	{"wc_zipf_pr", one, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		return newWCRig(wcConfig{seed: seed, bytes: sz.wcBytes, zipf: true, pr: true, partitioner: "sample"}, benchRanks, tr)
	}},
	{"wc_spill", one, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		cfg := wcUniform(seed, sz)
		cfg.arenaCap = sz.spillCap
		return newWCRig(cfg, benchRanks, tr)
	}},
	{"shuffle_tcp", one, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		return newShuffleRig(seed, sz.shuffleWords, false, tr)
	}},
	{"shuffle_flate", one, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		return newShuffleRig(seed, sz.shuffleWords, true, tr)
	}},
	{"terasort", one, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		cfg := driver.JobConfig{Kind: driver.JobTeraSort, Seed: seed, Rows: sz.teraRows, Hint: true, Workers: 1}
		return newDriverRig(cfg, sz.teraRows*int64(workloads.DefaultTeraKeyBytes+workloads.DefaultTeraValBytes), sz.teraRows, tr)
	}},
	{"pagerank", one, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		cfg := driver.JobConfig{Kind: driver.JobPageRank, Seed: seed, Scale: sz.prScale, EdgeFactor: sz.prEdgeFactor,
			MaxRounds: sz.prRounds, Hint: true, PR: true, Workers: 1}
		edges := int64(sz.prEdgeFactor) << sz.prScale
		return newDriverRig(cfg, edges*16, 0, tr)
	}},
	{"mimird_small_jobs", func(sz sizes) int { return sz.smallBatch }, func(seed uint64, sz sizes, tr *tracer) (rig, error) {
		return newDaemonRig(seed, sz.smallBytes, tr)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest is an order-independent summary of a (key, count) multiset.
type digest struct {
	keys  int64
	total uint64
	sum   uint64
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (d *digest) add(k []byte, count uint64) {
	d.keys++
	d.total += count
	d.sum += mix64(kvbuf.HashKey(k) ^ mix64(count+1))
}

func (d *digest) merge(o digest) {
	d.keys += o.keys
	d.total += o.total
	d.sum += o.sum
}

// settle finishes a job whose arenas and output digests the benchmark owns:
// it folds the per-rank digests and arena peaks, stops the clock once the
// output is known, and compares against the reference.
func (res *jobResult) settle(t0 time.Time, arenas []*mem.Arena, digests []digest, want digest) error {
	var got digest
	for r, d := range digests {
		got.merge(d)
		res.arenaPeak += arenas[r].Peak()
	}
	res.wall = time.Since(t0).Seconds()
	if got != want {
		return fmt.Errorf("output digest %+v, reference %+v", got, want)
	}
	return nil
}

// digestLines digests driver.WordCount's "word count\n" output.
func digestLines(out []byte) (digest, error) {
	var d digest
	for _, line := range bytes.Split(out, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			return d, fmt.Errorf("bench: malformed wordcount line %q", line)
		}
		n, err := strconv.ParseUint(string(line[sp+1:]), 10, 64)
		if err != nil {
			return d, fmt.Errorf("bench: malformed wordcount line %q: %w", line, err)
		}
		d.add(line[:sp], n)
	}
	return d, nil
}

// ---- wc_uniform, wc_zipf_pr, wc_spill -------------------------------------

type wcConfig struct {
	seed        uint64
	bytes       int64
	zipf, pr    bool
	partitioner string
	arenaCap    int64 // per rank; 0 = unlimited; > 0 turns spill-when-needed on
}

const zipfSkew = 1.1

type wcRig struct {
	cfg    wcConfig
	ranks  int
	worlds []*mpi.World // one per rank over TCP, or one Local world of every rank
	fs     *pfs.FS
	want   digest
}

func wcUniform(seed uint64, sz sizes) wcConfig { return wcConfig{seed: seed, bytes: sz.wcBytes} }

func (c wcConfig) input(comm *mpi.Comm) core.Input {
	if c.zipf {
		return workloads.ZipfTextInput(nil, comm.Clock(), workloads.ZipfConfig{Skew: zipfSkew},
			c.seed, c.bytes, comm.Rank(), comm.Size())
	}
	return workloads.TextInput(nil, comm.Clock(), workloads.Uniform, c.seed, c.bytes, comm.Rank(), comm.Size())
}

// wcReference digests the driver's own wordcount of the corpus on the
// in-process transport: default partitioner, no partial reduction, no cap.
func wcReference(cfg driver.WordCountConfig, ranks int) ([]byte, digest, error) {
	ref, err := driver.WordCount(localWorld(ranks), cfg, nil)
	if err != nil {
		return nil, digest{}, fmt.Errorf("reference wordcount: %w", err)
	}
	want, err := digestLines(ref)
	return ref, want, err
}

func newWCRig(cfg wcConfig, ranks int, tr *tracer) (rig, error) {
	_, want, err := wcReference(driver.WordCountConfig{
		Dist: workloads.Uniform, TotalBytes: cfg.bytes, Seed: cfg.seed, Hint: true, Workers: 1,
		UseZipf: cfg.zipf, ZipfSkew: zipfSkew,
	}, ranks)
	if err != nil {
		return nil, err
	}
	worlds, err := tcpWorlds(ranks, false, tr)
	if err != nil {
		return nil, err
	}
	g := &wcRig{cfg: cfg, ranks: ranks, worlds: worlds, want: want}
	if cfg.arenaCap > 0 {
		g.fs = pfs.New(pfs.Config{})
	}
	return g, nil
}

func (g *wcRig) job() (jobResult, error) {
	res := jobResult{sum: metrics.NewSummary()}
	arenas := make([]*mem.Arena, g.ranks)
	digests := make([]digest, g.ranks)
	t0 := time.Now()
	err := eachRank(g.worlds, func(_ int, w *mpi.World) error {
		return w.Run(func(c *mpi.Comm) error {
			r := c.Rank()
			part, err := partition.ByName(g.cfg.partitioner)
			if err != nil {
				return err
			}
			arenas[r] = mem.NewArena(g.cfg.arenaCap)
			eng := workloads.NewMimirEngine(c, arenas[r])
			eng.Workers = 1
			eng.Partitioner = part
			if g.fs != nil {
				eng.OutOfCore = core.SpillWhenNeeded
				eng.SpillFS = g.fs
			}
			opts := workloads.StageOpts{Hint: workloads.WCHint()}
			if g.cfg.pr {
				opts.PartialReduce = workloads.WordCountCombine
			}
			stats, err := eng.RunStage(opts, g.cfg.input(c), workloads.WordCountMap, workloads.WordCountReduce,
				func(k, v []byte) error {
					digests[r].add(k, core.BytesUint64(v))
					return nil
				})
			if err != nil {
				return err
			}
			stats.Record(res.sum)
			return nil
		})
	})
	if err != nil {
		return res, err
	}
	return res, res.settle(t0, arenas, digests, g.want)
}

func (g *wcRig) volume() (int64, int64) { return g.cfg.bytes, int64(g.want.total) }

func (g *wcRig) inputSeconds() float64 {
	var worst float64
	for _, w := range g.worlds {
		w.Run(func(c *mpi.Comm) error {
			t0 := time.Now()
			g.cfg.input(c)(func(core.Record) error { return nil })
			if d := time.Since(t0).Seconds(); d > worst {
				worst = d
			}
			return nil
		})
	}
	return worst
}

func (g *wcRig) close() { closeWorlds(g.worlds) }

// ---- shuffle_tcp, shuffle_flate --------------------------------------------

const shuffleVocab = 4096

type shuffleRig struct {
	worlds  []*mpi.World
	vocab   [][]byte
	seed    uint64
	perRank int
	want    digest
	bytes   int64
}

// vocabulary returns n distinct wordcount-shaped keys of 8 to 16 bytes.
func vocabulary(n int) [][]byte {
	vocab := make([][]byte, n)
	for i := range vocab {
		w := fmt.Sprintf("word%04x", i)
		for len(w) < 8+i%9 {
			w += "x"
		}
		vocab[i] = []byte(w)
	}
	return vocab
}

// wordsInput streams n pre-tokenized one-word records, so the map is a bare
// emit and the job is the exchange path alone.
func (g *shuffleRig) wordsInput(rank int) core.Input {
	return func(emit func(core.Record) error) error {
		state := g.seed + uint64(rank+1)*0x9E3779B97F4A7C15
		for i := 0; i < g.perRank; i++ {
			state += 0x9E3779B97F4A7C15
			if err := emit(core.Record{Val: g.vocab[mix64(state)%shuffleVocab]}); err != nil {
				return err
			}
		}
		return nil
	}
}

func newShuffleRig(seed uint64, words int, compress bool, tr *tracer) (rig, error) {
	g := &shuffleRig{vocab: vocabulary(shuffleVocab), seed: seed, perRank: words / benchRanks}
	// Reference: digest what the generators produce, before any engine
	// touches it.
	for r := 0; r < benchRanks; r++ {
		g.wordsInput(r)(func(rec core.Record) error {
			g.want.add(rec.Val, 1)
			g.bytes += int64(len(rec.Val))
			return nil
		})
	}
	worlds, err := tcpWorlds(benchRanks, compress, tr)
	if err != nil {
		return nil, err
	}
	g.worlds = worlds
	return g, nil
}

func (g *shuffleRig) job() (jobResult, error) {
	res := jobResult{sum: metrics.NewSummary()}
	one := mimir.Uint64Bytes(1)
	mapFn := func(rec mimir.Record, e mimir.Emitter) error { return e.Emit(rec.Val, one) }
	arenas := make([]*mem.Arena, len(g.worlds))
	digests := make([]digest, len(g.worlds))
	t0 := time.Now()
	err := eachRank(g.worlds, func(r int, w *mpi.World) error {
		return w.Run(func(c *mimir.Comm) error {
			arenas[r] = mimir.NewArena(0)
			job := mimir.NewJob(c, mimir.Config{Arena: arenas[r], Hint: workloads.WCHint(), Workers: 1})
			out, err := job.Run(g.wordsInput(r), mapFn, nil)
			if err != nil {
				return err
			}
			defer out.Free()
			if err := out.Scan(func(k, v []byte) error {
				digests[r].add(k, core.BytesUint64(v))
				return nil
			}); err != nil {
				return err
			}
			s := out.Stats
			workloads.StageStats{
				ShuffledBytes: s.ShuffledBytes, MapTime: s.Phases.Map, AggrTime: s.Phases.Aggregate,
				ConvertTime: s.Phases.Convert, ReduceTime: s.Phases.Reduce,
			}.Record(res.sum)
			return nil
		})
	})
	if err != nil {
		return res, err
	}
	return res, res.settle(t0, arenas, digests, g.want)
}

func (g *shuffleRig) volume() (int64, int64) { return g.bytes, g.want.keys }

func (g *shuffleRig) inputSeconds() float64 {
	t0 := time.Now()
	g.wordsInput(0)(func(core.Record) error { return nil })
	return time.Since(t0).Seconds()
}

func (g *shuffleRig) close() { closeWorlds(g.worlds) }

// ---- terasort, pagerank ----------------------------------------------------

type driverRig struct {
	cfg        driver.JobConfig
	worlds     []*mpi.World
	ref        []byte
	arenaPeak  int64
	inputBytes int64
	kvs        int64
}

func newDriverRig(cfg driver.JobConfig, inputBytes, kvs int64, tr *tracer) (rig, error) {
	ref, err := driver.RunJob(localWorld(benchRanks), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", cfg.Kind, err)
	}
	if cfg.Kind == driver.JobTeraSort {
		if err := verifyTeraSort(cfg, ref); err != nil {
			return nil, err
		}
	}
	peak, err := driverArenaReplica(cfg)
	if err != nil {
		return nil, fmt.Errorf("arena replica of %s: %w", cfg.Kind, err)
	}
	worlds, err := tcpWorlds(benchRanks, false, tr)
	if err != nil {
		return nil, err
	}
	return &driverRig{cfg: cfg, worlds: worlds, ref: ref, arenaPeak: peak, inputBytes: inputBytes, kvs: kvs}, nil
}

// driverArenaReplica runs cfg's engine stages once on a Local world, through
// the workloads entry point driver.RunJob itself calls and with its engine
// settings, on arenas the benchmark can read: the driver builds each rank's
// arena itself and reports no peak. It returns the sum of the ranks' peaks.
func driverArenaReplica(cfg driver.JobConfig) (int64, error) {
	arenas := make([]*mem.Arena, benchRanks)
	err := localWorld(benchRanks).Run(func(c *mpi.Comm) error {
		arenas[c.Rank()] = mem.NewArena(0)
		eng := workloads.NewMimirEngine(c, arenas[c.Rank()])
		eng.Workers = cfg.Workers
		eng.Partitioner = partition.HashPartitioner{}
		var err error
		switch cfg.Kind {
		case driver.JobTeraSort:
			tcfg := workloads.TeraSortConfig{Rows: cfg.Rows, Seed: cfg.Seed}
			_, err = workloads.RunTeraSort(eng, nil, tcfg, workloads.StageOpts{Hint: workloads.TeraSortHint(tcfg)},
				func(k, v []byte) error { return nil })
		case driver.JobPageRank:
			pcfg := workloads.PageRankConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed, MaxRounds: cfg.MaxRounds}
			opts := workloads.StageOpts{Hint: workloads.PageRankHint(), PartialReduce: workloads.Int64VecAdd}
			_, err = workloads.RunPageRank(eng, nil, pcfg, opts, workloads.MultiRound{},
				func(uint64, int64) error { return nil })
		default:
			err = fmt.Errorf("bench: no arena replica for job kind %q", cfg.Kind)
		}
		return err
	})
	var peak int64
	for _, a := range arenas {
		if a != nil {
			peak += a.Peak()
		}
	}
	return peak, err
}

// verifyTeraSort decodes the driver's canonical "<key hex> <payload hex>"
// lines back into rows and hands them to the O(n) oracle as one block.
func verifyTeraSort(cfg driver.JobConfig, out []byte) error {
	var rows []byte
	for _, line := range bytes.Split(out, []byte{'\n'}) {
		for _, field := range bytes.Fields(line) {
			for i := 0; i+1 < len(field); i += 2 {
				b, err := strconv.ParseUint(string(field[i:i+2]), 16, 8)
				if err != nil {
					return fmt.Errorf("bench: terasort line %q: %w", line, err)
				}
				rows = append(rows, byte(b))
			}
		}
	}
	return workloads.VerifyTeraSort(workloads.TeraSortConfig{Rows: cfg.Rows, Seed: cfg.Seed}, [][]byte{rows})
}

func (g *driverRig) job() (jobResult, error) {
	res := jobResult{sum: metrics.NewSummary(), driver: true, arenaPeak: g.arenaPeak}
	var got []byte
	t0 := time.Now()
	err := eachRank(g.worlds, func(r int, w *mpi.World) error {
		out, err := driver.RunJob(w, g.cfg, res.sum)
		if r == 0 {
			got = out
		}
		return err
	})
	if err != nil {
		return res, err
	}
	ok := bytes.Equal(got, g.ref)
	res.wall = time.Since(t0).Seconds()
	if !ok {
		return res, fmt.Errorf("%s output (%d bytes) differs from the in-process reference (%d bytes)", g.cfg.Kind, len(got), len(g.ref))
	}
	return res, nil
}

func (g *driverRig) volume() (int64, int64) { return g.inputBytes, g.kvs }
func (g *driverRig) inputSeconds() float64  { return 0 }
func (g *driverRig) close()                 { closeWorlds(g.worlds) }

// ---- mimird_small_jobs -----------------------------------------------------

type daemonRig struct {
	srv       *jobsvc.Server
	ln        net.Listener
	served    chan error
	client    *jobsvc.Client
	spec      jobsvc.Spec
	cfg       driver.WordCountConfig // the same job, for the reference and the bare-driver timing
	ref       []byte
	refWords  int64
	arenaPeak int64
}

func newDaemonRig(seed uint64, bytes int64, tr *tracer) (rig, error) {
	cfg := driver.WordCountConfig{Dist: workloads.Uniform, TotalBytes: bytes, Seed: seed, Hint: true, Workers: 1}
	ref, d, err := wcReference(cfg, benchRanks)
	if err != nil {
		return nil, err
	}
	// The daemon builds each job's arenas itself and reports no peak: the
	// replica is the same wordcount stage, once, on a Local world (the
	// daemon's transport) with arenas the benchmark can read.
	replica := &wcRig{cfg: wcConfig{seed: seed, bytes: bytes}, ranks: benchRanks,
		worlds: []*mpi.World{localWorld(benchRanks)}, want: d}
	rep, err := replica.job()
	if err != nil {
		return nil, fmt.Errorf("arena replica of the daemon's job: %w", err)
	}
	// jobsvc.LocalMesh with the tracing decorator around the transport.
	factory := jobsvc.NewMeshFactory(benchRanks, membership.KindLocal, func(spec jobsvc.MeshSpec) (jobsvc.Mesh, error) {
		local := transport.NewLocal(spec.Size)
		return jobsvc.Mesh{Transport: tr.wrap(local), Close: func() {
			local.Abort(fmt.Errorf("%w: bench: mesh closed", transport.ErrAborted))
			local.Close()
		}}, nil
	})
	srv, err := jobsvc.NewServer(jobsvc.Config{Mesh: factory})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	g := &daemonRig{
		srv: srv, ln: ln, served: make(chan error, 1), client: jobsvc.Dial(ln.Addr().String()),
		spec: jobsvc.Spec{Bytes: bytes, Seed: seed, Hint: true, Workers: 1},
		cfg:  cfg, ref: ref, refWords: int64(d.total), arenaPeak: rep.arenaPeak,
	}
	go func() { g.served <- srv.Serve(ln) }()
	return g, nil
}

func (g *daemonRig) job() (jobResult, error) {
	res := jobResult{simulated: true, arenaPeak: g.arenaPeak}
	var running time.Time
	t0 := time.Now()
	r, err := g.client.Submit(g.spec, func(ev jobsvc.Event) {
		if ev.Event == jobsvc.EvRunning {
			running = time.Now()
		}
	})
	done := time.Now()
	if err != nil {
		return res, err
	}
	ok := bytes.Equal(r.Output, g.ref)
	res.wall = time.Since(t0).Seconds()
	if !ok {
		return res, errors.New("daemon wordcount output differs from the in-process reference")
	}
	if !running.IsZero() {
		res.queueWait = running.Sub(t0).Seconds()
		res.run = done.Sub(running).Seconds()
	}
	res.sum = metrics.NewSummary()
	if err := res.sum.MergeJSON(bytes.NewReader(r.Metrics)); err != nil {
		return res, fmt.Errorf("daemon metrics: %w", err)
	}
	return res, nil
}

func (g *daemonRig) volume() (int64, int64) { return g.spec.Bytes, g.refWords }
func (g *daemonRig) inputSeconds() float64  { return 0 }

func (g *daemonRig) close() {
	g.srv.Shutdown()
	// Shutdown closes only a listener Serve has already registered; a rig
	// closed right after set-up may beat the Serve goroutine to it.
	g.ln.Close()
	<-g.served
}

// bareDriverSeconds times the daemon's job through driver.WordCount on a
// bare Local world: what the job costs without the service around it.
func (g *daemonRig) bareDriverSeconds(reps int) float64 {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := driver.WordCount(localWorld(benchRanks), g.cfg, nil); err != nil {
			return 0
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}

// watchdog turns a hung job into a failure instead of a hung benchmark.
const watchdog = 60 * time.Second

var errWatchdog = errors.New("bench: job exceeded the watchdog")

// guarded runs one job under the watchdog. After errWatchdog the rig is
// unusable (its goroutines are still blocked) and the run must stop.
func guarded(g rig) (jobResult, error) {
	type outcome struct {
		res jobResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := g.job()
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		return jobResult{}, errWatchdog
	}
}
