package driver

import (
	"bytes"
	"fmt"
	"slices"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/workloads"
)

// Job kinds RunJob dispatches on.
const (
	JobWordCount = "wordcount"
	JobTeraSort  = "terasort"
	JobPageRank  = "pagerank"
	JobKMeans    = "kmeans"
	JobBFS       = "bfs"
	JobOctree    = "octree"
)

// JobConfig describes one distributed job of any kind. Every input is
// regenerated per rank from (seed, rank, size), so no input distribution
// step is needed, any two worlds of the same size and config process the
// same data, and the gathered output is byte-identical whatever transport,
// process layout, or spill policy ran it.
type JobConfig struct {
	// Kind selects the job (see JobKinds; "" means wordcount).
	Kind string
	Seed uint64
	// Optimizations (see workloads.StageOpts). Each kind substitutes its own
	// combiner for PR and CPS; a kind whose records must survive as records
	// (terasort rows, BFS candidate parents under PR) ignores the flag. They
	// never change the output bytes, with one exception: BFS under CPS keeps
	// one candidate parent per sender and so may settle on a different —
	// equally valid, equally deterministic — parents tree.
	Hint, PR, CPS bool
	// Workers stays so existing configurations still compile: each rank
	// runs on one goroutine, and more cores take more ranks. 0 and 1 are
	// accepted; Validate rejects any other value (see core.Config.Workers).
	Workers int
	// MemBytes caps each rank's engine arena (0 = unlimited). The job
	// service sets it to the job's admitted memory floor divided by the
	// world size, so a job that outgrows its reservation fails itself
	// instead of eating into memory promised to other jobs.
	MemBytes int64
	// PageSize / CommBuf override the engine's container page and exchange
	// buffer sizes (0 = engine defaults). Tests shrink them to create spill
	// pressure with small corpora.
	PageSize, CommBuf int
	// Partitioner names the key→rank strategy ("" or "hash" = FNV-1a,
	// "sample" = sampled weighted ranges; see partition.ByName). TeraSort
	// always sorts on the sampling partitioner and the graph jobs always
	// keep vertex state on the hash, whatever is named here; wordcount and
	// k-means honor it fully.
	Partitioner string
	// OutOfCore selects the engines' memory-pressure policy. The spill
	// policies get a per-process simulated PFS as the spill target, so
	// multi-round jobs exercise evict/restore across round boundaries.
	OutOfCore core.OutOfCore
	// Checkpoint enables post-shuffle checkpoint/restore (see
	// core.Config.Checkpoint): wordcount checkpoints its one stage under
	// the name, multi-round jobs one per round under "<Name>.r<N>" (see
	// workloads.MultiRound). A restored run's output is byte-identical to a
	// fresh one at the same world size; the elastic job service
	// repartitions wordcount checkpoints when the world resizes.
	Checkpoint *core.Checkpoint
	// OnRound, when non-nil, runs on every rank at each round boundary of a
	// multi-round job — the job service's mid-iteration crash hook.
	OnRound func(rank, round int) error

	// WordCount corpus: Dist over TotalBytes, or — with UseZipf — the
	// parameterized zipf generator at ZipfSkew with Contention diverted to
	// the hottest key (workloads.ZipfTextInput).
	Dist       workloads.Distribution
	TotalBytes int64
	UseZipf    bool
	ZipfSkew   float64
	Contention float64

	// TeraSort: total rows (default 1<<13).
	Rows int64
	// Graph jobs: 2^Scale vertices (default 8), EdgeFactor edges per vertex.
	Scale      int
	EdgeFactor int
	// k-means and octree: total points (default 1<<12); k-means geometry.
	Points  int64
	K, Dims int
	// MaxRounds caps iterative jobs and octree's refinement depth (0 =
	// workload default).
	MaxRounds int
}

// kind resolves the job's row of the kind table ("" means wordcount).
func (c JobConfig) kind() (*kind, error) {
	name := c.Kind
	if name == "" {
		name = JobWordCount
	}
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i], nil
		}
	}
	return nil, fmt.Errorf("driver: unknown job kind %q (want one of %v)", c.Kind, JobKinds())
}

// Validate rejects a job description no world could run: an unknown kind,
// distribution or partitioner name, or a corpus parameter out of range.
// RunJob, the job service's admission and the CLIs all share this check.
func (c JobConfig) Validate() error {
	if _, err := c.kind(); err != nil {
		return err
	}
	if c.Dist != workloads.Uniform && c.Dist != workloads.Wikipedia {
		return fmt.Errorf("driver: unknown distribution %d", int(c.Dist))
	}
	if c.UseZipf && c.ZipfSkew < 0 {
		return fmt.Errorf("driver: negative zipf skew %v", c.ZipfSkew)
	}
	if c.Contention < 0 || c.Contention > 1 {
		return fmt.Errorf("driver: contention %v out of [0, 1]", c.Contention)
	}
	if err := core.CheckWorkers("driver: JobConfig.Workers", c.Workers); err != nil {
		return err
	}
	_, err := partition.ByName(c.Partitioner)
	return err
}

// Iterative reports whether the job's kind runs a round loop (and so has
// round boundaries for OnRound and per-round checkpoints).
func (c JobConfig) Iterative() bool {
	k, err := c.kind()
	return err == nil && k.iterative
}

// KVHint is the encoding the job's intermediate KVs — and therefore its
// checkpoint files — use: the kind's hint when Hint is on, else the default
// variable-length encoding.
func (c JobConfig) KVHint() kvbuf.Hint {
	if k, err := c.kind(); err == nil && c.Hint {
		return k.hint(&c)
	}
	return kvbuf.DefaultHint()
}

// NewEngine builds one rank's Mimir engine over arena from the job's engine
// knobs — the one constructor RunJob and the experiment harness share, so a
// JobConfig knob reaches the engine the same way whoever runs the job. part
// is the resolved Partitioner name and spillFS the spill policies' target.
func (c JobConfig) NewEngine(comm *mpi.Comm, arena *mem.Arena, part partition.Partitioner,
	spillFS *pfs.FS) *workloads.MimirEngine {
	eng := workloads.NewMimirEngine(comm, arena)
	eng.PageSize = c.PageSize
	eng.CommBuf = c.CommBuf
	eng.Workers = c.Workers
	eng.Partitioner = part
	eng.OutOfCore = c.OutOfCore
	eng.SpillFS = spillFS
	return eng
}

// RunRank runs the job's stages on one rank's engine: the single place a
// JobConfig becomes stage options and a workload call. fs (nil = free)
// charges input reading. With out non-nil the rank's share of the canonical
// output (see RunJob) is appended to it — as lines, or, for a kind with a
// format (terasort), as the sorted binary rows RunJob formats at rank 0 —
// and result checks outside the timed kernel (BFS tree validation) run; with
// out nil the job is measured only. It returns the rank's stage stats and
// the executed round count.
func (c JobConfig) RunRank(e workloads.Engine, fs *pfs.FS, out *bytes.Buffer) (workloads.StageStats, int, error) {
	k, err := c.kind()
	if err != nil {
		return workloads.StageStats{}, 0, err
	}
	if c.Rows <= 0 {
		c.Rows = 1 << 13
	}
	if c.Scale <= 0 {
		c.Scale = 8
	}
	if c.Points <= 0 {
		c.Points = 1 << 12
	}
	opts := workloads.StageOpts{Hint: c.KVHint()}
	if c.PR {
		opts.PartialReduce = k.pr
	}
	if c.CPS {
		opts.Combiner = k.cps
	}
	mr := workloads.MultiRound{Checkpoint: c.Checkpoint}
	if c.OnRound != nil {
		rank := e.Comm().Rank()
		mr.OnRound = func(round int) error { return c.OnRound(rank, round) }
	}
	return k.run(e, fs, &c, opts, mr, out)
}

// RunJob runs cfg on every rank of world and gathers the canonical result
// at rank 0: the returned buffer is non-nil only on the process hosting rank
// 0 and is byte-identical for a given (cfg, world size) regardless of
// transport or process layout. When sum is non-nil, every local rank records
// its stage stats and total time into it (the per-rank distribution view).
// Canonical formats, one line per record, in byte order of the lines (each
// rank sorts its own block, rank 0 keeps its own and gathers the others',
// then merges them):
//
//	wordcount: "<word> <count>"           — one line per distinct word
//	terasort: "<key hex> <payload hex>"  — one line per row; the byte
//	          order of fixed-width hex equals key order, so the output is
//	          the globally sorted row sequence (the ranks ship binary
//	          rows, and rank 0 writes the lines once, into the output)
//	pagerank: "<vertex %016x> <score>"   — score in fixed-point units
//	kmeans:   "<cluster %04d> <coords> n=<count>" (rank 0 only: the
//	          all-gathered table is global)
//	bfs:      "<vertex %016x> <parent %016x>" over visited vertices
//	octree:   "levels=<n> dense=<deepest level> total_dense=<all levels>"
//	          (rank 0 only: every rank holds the all-gathered dense sets)
func RunJob(world *mpi.World, cfg JobConfig, sum *metrics.Summary) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, err := cfg.kind()
	if err != nil {
		return nil, err
	}
	part, err := partition.ByName(cfg.Partitioner)
	if err != nil {
		return nil, err
	}
	// The spill policies need a spill target; each process simulates its
	// own PFS (what pages it writes never affects what the job computes).
	var spillFS *pfs.FS
	if cfg.OutOfCore != core.Error {
		spillFS = pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	}
	var out []byte
	err = world.Run(func(c *mpi.Comm) error {
		eng := cfg.NewEngine(c, mem.NewArena(cfg.MemBytes), part, spillFS)
		var mine bytes.Buffer
		stats, _, err := cfg.RunRank(eng, nil, &mine)
		if err != nil {
			return err
		}
		if sum != nil {
			stats.Record(sum)
			sum.Add("rank-sec", c.Clock().Now())
		}
		// Every rank sorts its own lines — most kinds stream them sorted
		// already, and a kind with a format streams sorted rows — so what is
		// left for rank 0 is a merge of sorted blocks. Rank 0's own block
		// never crosses the gather.
		block := mine.Bytes()
		if k.format == nil {
			block = sortLines(block)
		}
		send := block
		if c.Rank() == 0 {
			send = nil
		}
		gathered, err := c.Gatherv(send, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			gathered[0] = block
			out = canonicalize(gathered, k.format)
		}
		return nil
	})
	if sum != nil {
		recordFaultStats(world, sum)
	}
	if err != nil {
		return nil, err
	}
	if out == nil && len(world.LocalRanks()) > 0 && world.LocalRanks()[0] == 0 {
		out = []byte{}
	}
	return out, nil
}

// nextLine splits the first line off block: the line without its '\n' and
// what follows it. A last line with no terminator is still a line. Lines
// order by their bytes without the terminator — the order sort.Strings gives
// the line strings — so "ab" sorts before "ab\x01" although '\n' > 0x01.
func nextLine(block []byte) (line, rest []byte) {
	if i := bytes.IndexByte(block, '\n'); i >= 0 {
		return block[:i], block[i+1:]
	}
	return block, nil
}

// sortLines returns block's non-empty lines in sorted order, each ended by
// '\n'. One linear pass proves that most blocks already are that (pagerank,
// bfs, kmeans and octree stream in order) and returns them as they came;
// only a block that fails it (wordcount's engine order) is sorted, by line
// position — the bytes move once, into the result. A kind with a format
// (terasort) skips it: its block is binary rows, sorted by RunTeraSort.
func sortLines(block []byte) []byte {
	sorted := len(block) == 0 || block[len(block)-1] == '\n'
	var prev []byte
	for rest := block; sorted && len(rest) > 0; {
		var line []byte
		line, rest = nextLine(rest)
		sorted = len(line) > 0 && bytes.Compare(prev, line) <= 0
		prev = line
	}
	if sorted {
		return block
	}
	var lines [][]byte
	for rest := block; len(rest) > 0; {
		var line []byte
		if line, rest = nextLine(rest); len(line) > 0 {
			lines = append(lines, line)
		}
	}
	slices.SortFunc(lines, bytes.Compare)
	out := make([]byte, 0, len(block)+1)
	for _, line := range lines {
		out = append(append(out, line...), '\n')
	}
	return out
}

// canonicalize merges the ranks' sorted blocks (see sortLines) into the one
// canonical global order. When the data says the blocks are also in order
// among themselves — a range-partitioned job's are: rank order is key
// order — that is their concatenation. With a format the blocks are sorted
// binary rows: they are formatted in rank order into one buffer of the
// output's exact size, which is the result unless the same boundary check
// fails on the lines.
func canonicalize(blocks [][]byte, format *hexRows) []byte {
	if format == nil {
		if blocksInOrder(blocks) {
			return bytes.Join(blocks, nil)
		}
		return mergeLines(blocks)
	}
	size := 0
	for _, b := range blocks {
		size += format.lineBytes(b)
	}
	out := make([]byte, 0, size)
	for r, b := range blocks {
		at := len(out)
		out = format.appendLines(out, b)
		blocks[r] = out[at:]
	}
	if blocksInOrder(blocks) {
		return out
	}
	return mergeLines(blocks)
}

// blocksInOrder reports whether no block's first line sorts before the last
// line of the non-empty block ahead of it. A block's last line is found from
// its end, so the check reads two lines per block, not the data.
func blocksInOrder(blocks [][]byte) bool {
	var last []byte
	for _, b := range blocks {
		if len(b) == 0 {
			continue
		}
		first, _ := nextLine(b)
		if bytes.Compare(last, first) > 0 {
			return false
		}
		body := b[:len(b)-1] // sortLines ended the last line
		last = body[bytes.LastIndexByte(body, '\n')+1:]
	}
	return true
}

// mergeLines is the k-way merge of sorted blocks: a binary min-heap of the
// blocks keyed by their current first line, so each output line costs
// O(log ranks) line compares and the bytes move once.
func mergeLines(blocks [][]byte) []byte {
	type cursor struct{ line, rest []byte }
	var heap []cursor
	total := 0
	for _, b := range blocks {
		if len(b) > 0 {
			line, rest := nextLine(b)
			heap = append(heap, cursor{line, rest})
			total += len(b)
		}
	}
	sift := func(i int) {
		for {
			min := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
				if bytes.Compare(heap[c].line, heap[min].line) < 0 {
					min = c
				}
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		sift(i)
	}
	out := make([]byte, 0, total)
	for len(heap) > 0 {
		top := &heap[0]
		out = append(append(out, top.line...), '\n')
		if len(top.rest) > 0 {
			top.line, top.rest = nextLine(top.rest)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		sift(0)
	}
	return out
}

// recordFaultStats appends the world's link-failure count to sum, for a
// failed run too: a link failure aborts the world, and this counter says
// the abort came from the network rather than from the job.
func recordFaultStats(world *mpi.World, sum *metrics.Summary) {
	if fs, ok := world.FaultStats(); ok {
		sum.Add("net-link-failures", float64(fs.LinkFailures))
	}
}
