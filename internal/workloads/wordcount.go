package workloads

import (
	"encoding/binary"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/pfs"
)

// WCHint is WordCount's KV-hint: the key is a NUL-free word string (the
// paper's reserved -1 "strlen" length) and the value a fixed 8-byte count.
func WCHint() kvbuf.Hint { return kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)} }

// wcOne is the count every word is emitted with. Emit copies a value and a
// combiner only reads its incoming one, so one shared slice serves every
// record; nothing may write to it.
var wcOne = core.Uint64Bytes(1)

// WordCountMap splits a text record into words, emitting (word, 1).
func WordCountMap(rec core.Record, emit core.Emitter) error {
	data := rec.Val
	start := -1
	for i := 0; i <= len(data); i++ {
		if i < len(data) && data[i] != ' ' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			if err := emit.Emit(data[start:i], wcOne); err != nil {
				return err
			}
			start = -1
		}
	}
	return nil
}

// WordCountReduce sums the occurrence counts of one word.
func WordCountReduce(key []byte, vals *kvbuf.ValueIter, emit core.Emitter) error {
	var sum uint64
	for v, ok := vals.Next(); ok; v, ok = vals.Next() {
		sum += core.BytesUint64(v)
	}
	return emit.Emit(key, core.Uint64Bytes(sum))
}

// WordCountCombine merges two counts; it serves as both the KV compression
// and the partial-reduction callback (WordCount has the paper's
// "partial-reduce invariance": + is commutative and associative). The sum
// is written into existing, the engine's own copy (see core.CombineFunc), so
// a merge into a bucket entry allocates nothing.
func WordCountCombine(_ []byte, existing, incoming []byte) ([]byte, error) {
	sum := core.BytesUint64(existing) + core.BytesUint64(incoming)
	if len(existing) == 8 {
		binary.LittleEndian.PutUint64(existing, sum)
		return existing, nil
	}
	return core.Uint64Bytes(sum), nil
}

// WCConfig describes one WordCount run.
type WCConfig struct {
	Dist       Distribution
	TotalBytes int64
	Seed       uint64
	// Zipf, if set, replaces the Dist generator with the parameterized
	// zipf key generator (ZipfTextInput): tunable skew and contention
	// instead of the two fixed dataset shapes.
	Zipf *ZipfConfig
}

// WCResult summarizes one rank's view of a WordCount run.
type WCResult struct {
	UniqueWords int64 // on this rank
	TotalWords  uint64
	Stats       StageStats
}

// RunWordCount executes WC on the given engine. fs (may be nil in tests)
// charges input reading. sink, when non-nil, also receives the rank's
// (word, count) output in engine order.
func RunWordCount(e Engine, fs *pfs.FS, cfg WCConfig, opts StageOpts,
	sink func(k, v []byte) error) (WCResult, error) {
	comm := e.Comm()
	var input core.Input
	if cfg.Zipf != nil {
		input = ZipfTextInput(fs, comm.Clock(), *cfg.Zipf, cfg.Seed, cfg.TotalBytes, comm.Rank(), comm.Size())
	} else {
		input = TextInput(fs, comm.Clock(), cfg.Dist, cfg.Seed, cfg.TotalBytes, comm.Rank(), comm.Size())
	}
	var res WCResult
	stats, err := e.RunStage(opts, input, WordCountMap, WordCountReduce,
		func(k, v []byte) error {
			res.UniqueWords++
			res.TotalWords += core.BytesUint64(v)
			if sink != nil {
				return sink(k, v)
			}
			return nil
		})
	if err != nil {
		return res, err
	}
	res.Stats = stats
	return res, nil
}
