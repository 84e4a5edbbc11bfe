package workloads

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// sortShapes builds the row blocks the in-rank sort is tried on: n rows of
// rowLen bytes each, by shape name.
var sortShapes = []struct {
	name string
	fill func(r *rng, i, n int, row []byte)
}{
	{"random", func(r *rng, _, _ int, row []byte) {
		for j := range row {
			row[j] = byte(r.next())
		}
	}},
	// Every row opens with the same eight bytes: the prefix decides nothing.
	{"equal-prefix", func(r *rng, _, _ int, row []byte) {
		for j := range row {
			row[j] = 0xAB
			if j >= 8 {
				row[j] = byte(r.next())
			}
		}
	}},
	// Four keys (the first half of the row), a few payload values each:
	// duplicate keys with different payloads and duplicate whole rows.
	{"duplicates", func(r *rng, _, _ int, row []byte) {
		half := (len(row) + 1) / 2
		k, p := byte(r.intn(4)), byte(r.intn(3))
		for j := range row {
			row[j] = k
			if j >= half {
				row[j] = p
			}
		}
	}},
	{"sorted", func(_ *rng, i, _ int, row []byte) { countRow(row, i) }},
	{"reversed", func(_ *rng, i, n int, row []byte) { countRow(row, n-1-i) }},
}

// countRow writes v into row's last (up to) four bytes, big-endian, so rows
// order by v — with repeats once v outgrows a narrow row.
func countRow(row []byte, v int) {
	for j := len(row) - 1; j >= 0 && j >= len(row)-4; j-- {
		row[j] = byte(v)
		v >>= 8
	}
}

func sortBlock(shape int, n, rowLen int) []byte {
	r := newRNG(uint64(shape*131 + rowLen))
	block := make([]byte, n*rowLen)
	for i := 0; i < n; i++ {
		sortShapes[shape].fill(r, i, n, block[i*rowLen:][:rowLen])
	}
	return block
}

// TestSortRowsAdversarial: on every shape and on rows narrower than, as wide
// as and wider than the 8-byte prefix, the order sortRows returns is a
// permutation that reads the rows exactly as sort.Slice + bytes.Compare
// over a [][]byte row table orders them.
func TestSortRowsAdversarial(t *testing.T) {
	const n = 700
	for shape := range sortShapes {
		for _, rowLen := range []int{1, 5, 8, 9, 20} {
			t.Run(fmt.Sprintf("%s/%d", sortShapes[shape].name, rowLen), func(t *testing.T) {
				block := sortBlock(shape, n, rowLen)
				want := make([][]byte, n)
				for i := range want {
					want[i] = block[i*rowLen:][:rowLen]
				}
				sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })

				order := sortRows(block, rowLen)
				if len(order) != n {
					t.Fatalf("%d entries for %d rows", len(order), n)
				}
				seen := make([]bool, n)
				for i, ent := range order {
					if ent.idx < 0 || ent.idx >= n || seen[ent.idx] {
						t.Fatalf("entry %d: index %d is out of range or repeated", i, ent.idx)
					}
					seen[ent.idx] = true
					if got := block[ent.idx*rowLen:][:rowLen]; !bytes.Equal(got, want[i]) {
						t.Fatalf("position %d: row %x, want %x", i, got, want[i])
					}
				}
			})
		}
	}
	if got := sortRows(nil, 20); len(got) != 0 {
		t.Fatalf("empty block sorted into %d entries", len(got))
	}
}

// sortRowsCompare is the comparison sort sortRows' radix passes replaced, kept
// so BenchmarkTeraLocalSort can show the two side by side: slices.SortFunc on
// the same entries, prefix first, the rest of the row on a tie.
func sortRowsCompare(block []byte, rowLen int) []sortEntry {
	order := make([]sortEntry, len(block)/rowLen)
	for i := range order {
		order[i] = sortEntry{prefix: binary.BigEndian.Uint64(block[i*rowLen:]), idx: i}
	}
	slices.SortFunc(order, func(a, b sortEntry) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		return bytes.Compare(block[a.idx*rowLen+8:][:rowLen-8], block[b.idx*rowLen+8:][:rowLen-8])
	})
	return order
}

// BenchmarkTeraLocalSort times the in-rank sort on one rank's share of the
// bench/ terasort workload (65 536 default rows): sortRows under the shape's
// name, the comparison sort it was chosen over under "<shape>-compare".
func BenchmarkTeraLocalSort(b *testing.B) {
	const n, rowLen = 1 << 16, DefaultTeraKeyBytes + DefaultTeraValBytes
	for shape, s := range sortShapes {
		block := sortBlock(shape, n, rowLen)
		for _, v := range []struct {
			suffix string
			sort   func([]byte, int) []sortEntry
		}{{"", sortRows}, {"-compare", sortRowsCompare}} {
			b.Run(s.name+v.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if len(v.sort(block, rowLen)) != n {
						b.Fatal("short order")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
