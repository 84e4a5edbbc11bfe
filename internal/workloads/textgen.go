package workloads

import (
	"fmt"

	"mimir/internal/core"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

// Distribution selects a WordCount dataset.
type Distribution int

const (
	// Uniform is the paper's synthetic dataset: words drawn uniformly from a
	// fixed vocabulary, giving balanced partitions.
	Uniform Distribution = iota
	// Wikipedia stands in for the PUMA Wikipedia dataset: Zipf-distributed
	// word popularity with heterogeneous word lengths, giving the heavy key
	// and partition skew the paper observes.
	Wikipedia
)

// String names the distribution as the paper does.
func (d Distribution) String() string {
	if d == Wikipedia {
		return "Wikipedia"
	}
	return "Uniform"
}

// DistributionByName resolves the dataset names used by job specs and CLI
// flags: "" or "uniform" → Uniform, "wikipedia" → Wikipedia.
func DistributionByName(name string) (Distribution, error) {
	switch name {
	case "", "uniform":
		return Uniform, nil
	case "wikipedia":
		return Wikipedia, nil
	}
	return 0, fmt.Errorf("workloads: unknown dist %q (want uniform or wikipedia)", name)
}

// Generator parameters. Word lengths are tuned so that the average KV
// expansion factor of WordCount (encoded KV bytes / input bytes) is ~2.5 for
// Uniform and ~3.5 for Wikipedia, which places the engines' in-memory limits
// at the same dataset sizes the paper reports (e.g. MR-MPI with 512 MB pages
// handles 4 GB of uniform text on a Comet node and spills beyond it).
// Vocabulary sizes are scaled down with the datasets: a combiner bucket
// holding one entry per distinct word costs (vocab x entry bytes) per rank,
// and that footprint must stand in the same proportion to the scaled node
// memory as the real vocabularies did to 16-128 GB nodes — otherwise the KV
// compression figures (11/12) cannot reproduce. The flip side, documented
// in EXPERIMENTS.md, is that hash-partition variance is higher than the
// paper's, so MR-MPI's uniform-dataset weak scaling dies at smaller node
// counts than the paper's 32-64.
const (
	uniformVocab   = 8192
	wikipediaVocab = 16384
	wikipediaSkew  = 1.07 // Zipf exponent; word frequencies in text follow s ~ 1
	textRecordSize = 1024 // records ("lines") of about 1 KiB
)

// letters used to synthesize words deterministically from a word id.
const letters = "abcdefghijklmnopqrstuvwxyz"

// wordFor appends the vocabulary word with the given id. The word length
// grows slowly with id for Uniform; for Wikipedia, popular ids (small
// numbers) get short words and the long tail gets long words, mimicking
// natural text where frequent words are short.
func wordFor(dst []byte, id uint64, dist Distribution) []byte {
	length := 6 + int(id%7) // 6..12 chars
	if dist == Wikipedia {
		switch {
		case id < 64:
			length = 4 + int(id%3) // the, of, and, ...
		case id < 4096:
			length = 5 + int(id%5)
		default:
			length = 6 + int(id%15) // rare long words
		}
	}
	x := id
	for i := 0; i < length; i++ {
		dst = append(dst, letters[x%26])
		x = x/26 + id + uint64(i)*31
	}
	return dst
}

// TextInput returns a rank's share of a synthetic text dataset totalling
// totalBytes across nranks ranks. Records are ~1 KiB lines of
// space-separated words. Reading is charged to clock against the input file
// system, standing in for reading the dataset from Lustre/GPFS.
func TextInput(fs *pfs.FS, clock *simtime.Clock, dist Distribution, seed uint64,
	totalBytes int64, rank, nranks int) core.Input {
	share := totalBytes / int64(nranks)
	if rank < int(totalBytes%int64(nranks)) {
		share++
	}
	return func(emit func(rec core.Record) error) error {
		r := newRNG(seed + uint64(rank)*0x51_7C_C1_B7_27_22_0A_95)
		var z *zipf
		if dist == Wikipedia {
			z = newZipf(r, wikipediaSkew, wikipediaVocab)
		}
		buf := make([]byte, 0, textRecordSize+32)
		var produced int64
		for produced < share {
			buf = buf[:0]
			for len(buf) < textRecordSize && produced+int64(len(buf)) < share {
				var id uint64
				if dist == Wikipedia {
					id = z.sample() - 1
				} else {
					id = uint64(r.intn(uniformVocab))
				}
				buf = wordFor(buf, id, dist)
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
