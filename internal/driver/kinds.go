package driver

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/pfs"
	"mimir/internal/workloads"
)

// kind is one row of the job table: everything that distinguishes one job
// kind from another, written down once. RunJob, the experiment harness and
// the job service all reach it through JobConfig.
type kind struct {
	name string
	// hint is the kind's KV-hint encoding (used when JobConfig.Hint is on).
	hint func(c *JobConfig) kvbuf.Hint
	// pr / cps are the callbacks JobConfig.PR / CPS switch on; nil where the
	// optimization does not apply (paper IV-D: BFS is map-only, and sort
	// rows are distinct records that neither may merge).
	pr, cps core.CombineFunc
	// iterative marks the kinds that run the shared round loop.
	iterative bool
	// run executes the kind's workload on one rank (see JobConfig.RunRank).
	run func(e workloads.Engine, fs *pfs.FS, c *JobConfig, opts workloads.StageOpts,
		mr workloads.MultiRound, out *bytes.Buffer) (workloads.StageStats, int, error)
	// format is set for a kind whose sink writes fixed-width binary rows,
	// already sorted, instead of canonical lines (terasort): rank 0 turns
	// every rank's rows into lines once, straight into the output (see
	// canonicalize). nil for the kinds whose sinks write the lines.
	format *hexRows
}

var kinds = []kind{
	{
		name: JobWordCount,
		hint: func(*JobConfig) kvbuf.Hint { return workloads.WCHint() },
		pr:   workloads.WordCountCombine,
		cps:  workloads.WordCountCombine,
		run:  runWordCount,
	},
	{
		name:   JobTeraSort,
		hint:   func(*JobConfig) kvbuf.Hint { return workloads.TeraSortHint(workloads.TeraSortConfig{}) },
		run:    runTeraSort,
		format: &hexRows{key: workloads.DefaultTeraKeyBytes, val: workloads.DefaultTeraValBytes},
	},
	{
		name:      JobPageRank,
		hint:      func(*JobConfig) kvbuf.Hint { return workloads.PageRankHint() },
		pr:        workloads.Int64VecAdd,
		cps:       workloads.Int64VecAdd,
		iterative: true,
		run:       runPageRank,
	},
	{
		name: JobKMeans,
		hint: func(c *JobConfig) kvbuf.Hint {
			return workloads.KMeansHint(workloads.KMeansConfig{Dims: c.Dims})
		},
		pr:        workloads.Int64VecAdd,
		cps:       workloads.Int64VecAdd,
		iterative: true,
		run:       runKMeans,
	},
	{
		name:      JobBFS,
		hint:      func(*JobConfig) kvbuf.Hint { return workloads.BFSHint() },
		cps:       workloads.BFSCombine,
		iterative: true,
		run:       runBFS,
	},
	{
		// Octants are counted like words: the same sum combiner.
		name: JobOctree,
		hint: func(*JobConfig) kvbuf.Hint { return workloads.OCHint() },
		pr:   workloads.WordCountCombine,
		cps:  workloads.WordCountCombine,
		run:  runOctree,
	},
}

// JobKinds lists every kind RunJob accepts, in presentation order.
func JobKinds() []string {
	names := make([]string, len(kinds))
	for i := range kinds {
		names[i] = kinds[i].name
	}
	return names
}

func runWordCount(e workloads.Engine, fs *pfs.FS, c *JobConfig, opts workloads.StageOpts,
	mr workloads.MultiRound, out *bytes.Buffer) (workloads.StageStats, int, error) {
	wcfg := workloads.WCConfig{Dist: c.Dist, TotalBytes: c.TotalBytes, Seed: c.Seed}
	if c.UseZipf {
		wcfg.Zipf = &workloads.ZipfConfig{Skew: c.ZipfSkew, Contention: c.Contention}
	}
	opts.Checkpoint = mr.Checkpoint // one stage: the base name is the stage's
	var sink func(k, v []byte) error
	if out != nil {
		sink = func(k, v []byte) error {
			b := append(append(out.AvailableBuffer(), k...), ' ')
			b = strconv.AppendUint(b, core.BytesUint64(v), 10)
			out.Write(append(b, '\n'))
			return nil
		}
	}
	res, err := workloads.RunWordCount(e, fs, wcfg, opts, sink)
	return res.Stats, 1, err
}

func runTeraSort(e workloads.Engine, fs *pfs.FS, c *JobConfig, opts workloads.StageOpts,
	_ workloads.MultiRound, out *bytes.Buffer) (workloads.StageStats, int, error) {
	var sink func(k, v []byte) error
	if out != nil {
		// The rows go out as they are (the kind's format makes them lines at
		// rank 0), and the sampled ranges leave this rank close to an even
		// share of them: buy the block once, with slack.
		row := int64(workloads.DefaultTeraKeyBytes + workloads.DefaultTeraValBytes)
		share := c.Rows/int64(e.Comm().Size()) + 1
		out.Grow(int((share + share/8) * row))
		sink = func(k, v []byte) error {
			out.Write(append(append(out.AvailableBuffer(), k...), v...))
			return nil
		}
	}
	res, err := workloads.RunTeraSort(e, fs, workloads.TeraSortConfig{Rows: c.Rows, Seed: c.Seed}, opts, sink)
	return res.Stats, res.Rounds, err
}

// hexRows writes fixed-width binary rows — key bytes, then val bytes — as
// the canonical "<key hex> <val hex>\n" lines. Every line has the same
// width, so the lines of a block are sized before a byte is written, and
// fixed-width lower-case hex sorts exactly as the rows do.
type hexRows struct{ key, val int }

// hexPairs[b] is b as two lower-case hex digits.
var hexPairs = func() (t [256][2]byte) {
	const digits = "0123456789abcdef"
	for b := range t {
		t[b] = [2]byte{digits[b>>4], digits[b&15]}
	}
	return t
}()

// lineBytes is the length of the lines block's rows make.
func (h *hexRows) lineBytes(block []byte) int {
	row := h.key + h.val
	return len(block) / row * (2*row + 2)
}

// appendLines appends the lines of block's rows to dst.
func (h *hexRows) appendLines(dst, block []byte) []byte {
	n, size := len(dst), h.lineBytes(block)
	dst = slices.Grow(dst, size)[:n+size]
	line := dst[n:]
	row, width := h.key+h.val, 2*(h.key+h.val)+2
	for ; len(block) >= row && len(line) >= width; block, line = block[row:], line[width:] {
		putHex(line, block[:h.key])
		line[2*h.key] = ' '
		putHex(line[2*h.key+1:], block[h.key:row])
		line[width-1] = '\n'
	}
	return dst
}

// putHex writes src as lower-case hex into dst[:2*len(src)], eight digits
// to a store.
func putHex(dst, src []byte) {
	dst = dst[:2*len(src)]
	pair := func(b byte) uint64 { return uint64(binary.LittleEndian.Uint16(hexPairs[b][:])) }
	i := 0
	for ; i+4 <= len(src); i += 4 {
		binary.LittleEndian.PutUint64(dst[2*i:], pair(src[i])|pair(src[i+1])<<16|pair(src[i+2])<<32|pair(src[i+3])<<48)
	}
	for ; i < len(src); i++ {
		dst[2*i], dst[2*i+1] = hexPairs[src[i]][0], hexPairs[src[i]][1]
	}
}

func runPageRank(e workloads.Engine, fs *pfs.FS, c *JobConfig, opts workloads.StageOpts,
	mr workloads.MultiRound, out *bytes.Buffer) (workloads.StageStats, int, error) {
	var sink func(v uint64, score int64) error
	if out != nil {
		sink = func(v uint64, score int64) error {
			b := append(appendHex16(out.AvailableBuffer(), v), ' ')
			out.Write(append(strconv.AppendInt(b, score, 10), '\n'))
			return nil
		}
	}
	res, err := workloads.RunPageRank(e, fs, workloads.PageRankConfig{
		Scale: c.Scale, EdgeFactor: c.EdgeFactor, Seed: c.Seed, MaxRounds: c.MaxRounds,
	}, opts, mr, sink)
	return res.Stats, res.Rounds, err
}

func runKMeans(e workloads.Engine, fs *pfs.FS, c *JobConfig, opts workloads.StageOpts,
	mr workloads.MultiRound, out *bytes.Buffer) (workloads.StageStats, int, error) {
	res, err := workloads.RunKMeans(e, fs, workloads.KMeansConfig{
		Points: c.Points, K: c.K, Dims: c.Dims, Seed: c.Seed, MaxRounds: c.MaxRounds,
	}, opts, mr)
	if err != nil {
		return res.Stats, res.Rounds, err
	}
	// The all-gathered table is global: rank 0 alone reports it.
	if out != nil && e.Comm().Rank() == 0 {
		for ci, cent := range res.Centroids {
			fmt.Fprintf(out, "%04d", ci)
			for _, x := range cent {
				fmt.Fprintf(out, " %d", x)
			}
			fmt.Fprintf(out, " n=%d\n", res.Counts[ci])
		}
	}
	return res.Stats, res.Rounds, nil
}

func runBFS(e workloads.Engine, fs *pfs.FS, c *JobConfig, opts workloads.StageOpts,
	mr workloads.MultiRound, out *bytes.Buffer) (workloads.StageStats, int, error) {
	mr.MaxRounds = c.MaxRounds
	// Like Graph500's, the tree check is not part of the timed kernel: it
	// runs when the caller takes the result, not when it only measures.
	res, err := workloads.RunBFS(e, fs, workloads.BFSConfig{
		Scale: c.Scale, EdgeFactor: c.EdgeFactor, Seed: c.Seed, Validate: out != nil,
	}, opts, mr)
	if err != nil || out == nil {
		return res.Stats, res.Depth, err
	}
	verts := make([]uint64, 0, len(res.Parents))
	for v := range res.Parents {
		verts = append(verts, v)
	}
	slices.Sort(verts)
	for _, v := range verts {
		b := append(appendHex16(out.AvailableBuffer(), v), ' ')
		out.Write(append(appendHex16(b, res.Parents[v]), '\n'))
	}
	return res.Stats, res.Depth, nil
}

// appendHex16 appends v as fmt's %016x: sixteen lower-case hex digits.
func appendHex16(b []byte, v uint64) []byte {
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], v)
	return hex.AppendEncode(b, be[:])
}

func runOctree(e workloads.Engine, fs *pfs.FS, c *JobConfig, opts workloads.StageOpts,
	_ workloads.MultiRound, out *bytes.Buffer) (workloads.StageStats, int, error) {
	res, err := workloads.RunOctree(e, fs, workloads.OCConfig{
		TotalPoints: c.Points, Seed: c.Seed, MaxLevel: c.MaxRounds,
	}, opts)
	if err == nil && out != nil && e.Comm().Rank() == 0 {
		fmt.Fprintf(out, "levels=%d dense=%d total_dense=%d\n", res.Levels, res.DenseOctants, res.TotalDense)
	}
	// One job-level round: the refinement levels are octree's own loop, not
	// the shared round driver's.
	return res.Stats, 1, err
}
