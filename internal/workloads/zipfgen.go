package workloads

import (
	"math"

	"mimir/internal/core"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

// ZipfConfig parameterizes the skewed WordCount key generator, modeled on
// the --zipf/--contention knobs of conflict-benchmark harnesses: Skew is the
// Zipf exponent s (0 = uniform, ~1 = natural text, >1 = heavy head) and
// Contention diverts an extra probability mass onto the single hottest key,
// letting experiments dial one-key hotspots independently of the tail shape.
type ZipfConfig struct {
	// Skew is the Zipf exponent s >= 0. Unlike the Wikipedia generator's
	// rejection sampler (valid only for s > 1), sampling is by exact
	// inverse-CDF table, so the whole 0..2 sweep of the skew matrix runs on
	// one generator.
	Skew float64
	// Vocab is the vocabulary size (default 16384, the Wikipedia scale).
	Vocab int
	// Contention in [0, 1] is extra probability mass diverted to word id 0
	// on top of the Zipf draw. 0 adds none; 0.5 sends half of all draws to
	// the hottest key regardless of Skew.
	Contention float64
}

func (z ZipfConfig) vocab() int {
	if z.Vocab > 0 {
		return z.Vocab
	}
	return wikipediaVocab
}

// zipfTable samples word ids 0..vocab-1 with P(i) ∝ (i+1)^-s by binary
// search over the exact cumulative weights. Table construction is O(vocab)
// once per input share; sampling is O(log vocab) per word.
type zipfTable struct {
	cum   []float64 // cum[i] = sum of weights 0..i
	total float64
}

func newZipfTable(s float64, vocab int) *zipfTable {
	t := &zipfTable{cum: make([]float64, vocab)}
	for i := 0; i < vocab; i++ {
		t.total += math.Exp(-s * math.Log(float64(i+1)))
		t.cum[i] = t.total
	}
	return t
}

func (t *zipfTable) sample(r *rng) uint64 {
	x := r.float64() * t.total
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// ZipfTextInput returns a rank's share of a zipf-skewed synthetic text
// dataset totalling totalBytes across nranks ranks, in the same ~1 KiB-line
// shape as TextInput. Every record draws from its own RNG stream keyed by
// (seed, rank, record index), never from state shared across records, so a
// record's bytes do not depend on how many records were read before it.
// Reading charges the input file system like TextInput.
func ZipfTextInput(fs *pfs.FS, clock *simtime.Clock, cfg ZipfConfig, seed uint64,
	totalBytes int64, rank, nranks int) core.Input {
	share := totalBytes / int64(nranks)
	if rank < int(totalBytes%int64(nranks)) {
		share++
	}
	vocab := cfg.vocab()
	return func(emit func(rec core.Record) error) error {
		table := newZipfTable(cfg.Skew, vocab)
		buf := make([]byte, 0, textRecordSize+32)
		var produced, record int64
		for produced < share {
			r := streamFor(seed, rank, record)
			record++
			buf = buf[:0]
			for len(buf) < textRecordSize && produced+int64(len(buf)) < share {
				var id uint64
				if cfg.Contention > 0 && r.float64() < cfg.Contention {
					id = 0
				} else {
					id = table.sample(&r)
				}
				buf = wordFor(buf, id, Wikipedia)
				buf = append(buf, ' ')
			}
			produced += int64(len(buf))
			if fs != nil {
				fs.ChargeRead(clock, int64(len(buf)))
			}
			if err := emit(core.Record{Val: buf}); err != nil {
				return err
			}
		}
		return nil
	}
}
