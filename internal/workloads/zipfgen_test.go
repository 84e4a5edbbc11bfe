package workloads

import (
	"bytes"
	"fmt"
	"testing"

	"mimir/internal/core"
)

func TestStreamForIndependence(t *testing.T) {
	// Streams at nearby coordinates must be decorrelated and reproducible.
	a1, a2 := streamFor(1, 0, 0), streamFor(1, 0, 0)
	for i := 0; i < 32; i++ {
		if a1.next() != a2.next() {
			t.Fatal("streamFor not deterministic")
		}
	}
	seen := map[uint64]string{}
	for rank := 0; rank < 4; rank++ {
		for rec := int64(0); rec < 64; rec++ {
			r := streamFor(1, rank, rec)
			v := r.next()
			if at, dup := seen[v]; dup {
				t.Fatalf("stream (%d,%d) collides with %s", rank, rec, at)
			}
			seen[v] = fmt.Sprintf("(%d,%d)", rank, rec)
		}
	}
}

func TestZipfTableShape(t *testing.T) {
	r := newRNG(5)
	const n = 100000
	// s=1.1: heavy head — id 0 far more popular than id 100.
	tb := newZipfTable(1.1, 1024)
	counts := make([]int, 1024)
	for i := 0; i < n; i++ {
		counts[tb.sample(r)]++
	}
	if counts[0] < 10*counts[100] {
		t.Errorf("s=1.1 skew too weak: count(0)=%d count(100)=%d", counts[0], counts[100])
	}
	// s=0: uniform — no id holds more than 3x its fair share.
	tb = newZipfTable(0, 256)
	counts = make([]int, 256)
	for i := 0; i < n; i++ {
		counts[tb.sample(r)]++
	}
	for id, c := range counts {
		if c > 3*n/256 {
			t.Errorf("s=0 id %d holds %d of %d (not uniform)", id, c, n)
		}
	}
}

func TestZipfContentionDivertsMass(t *testing.T) {
	// contention=0.5 must put at least half the words on id 0's word, even
	// at zero skew.
	in := ZipfTextInput(nil, nil, ZipfConfig{Skew: 0, Vocab: 1024, Contention: 0.5}, 9, 64<<10, 0, 1)
	hot := string(wordFor(nil, 0, Wikipedia))
	var total, hotN int
	err := in(func(rec core.Record) error {
		for _, w := range bytes.Fields(rec.Val) {
			total++
			if string(w) == hot {
				hotN++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(hotN) / float64(total); frac < 0.45 || frac > 0.65 {
		t.Errorf("hot word holds %.2f of words, want ~0.5+", frac)
	}
}

func TestZipfInputDeterministicAndRankDisjoint(t *testing.T) {
	gen := func(rank int) []byte {
		var out []byte
		in := ZipfTextInput(nil, nil, ZipfConfig{Skew: 1.1}, 7, 32<<10, rank, 4)
		if err := in(func(rec core.Record) error {
			out = append(out, rec.Val...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(gen(0), gen(0)) {
		t.Fatal("same (seed, rank) produced different bytes")
	}
	if bytes.Equal(gen(0), gen(1)) {
		t.Fatal("different ranks produced identical bytes")
	}
}
