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

// TestSortRowsAdversarial: on every shape, on rows narrower than, as wide
// as and wider than eight bytes, and on row counts either side of the
// insertion-sort cutoff, radixSortRows leaves the block holding exactly the
// rows sort.Slice + bytes.Compare over a [][]byte row table gives.
func TestSortRowsAdversarial(t *testing.T) {
	for shape := range sortShapes {
		for _, rowLen := range []int{1, 5, 8, 9, 20} {
			t.Run(fmt.Sprintf("%s/%d", sortShapes[shape].name, rowLen), func(t *testing.T) {
				testSortRowsCounts(t, shape, rowLen)
			})
		}
	}
}

// testSortRowsCounts runs one shape and row width of TestSortRowsAdversarial
// on every row count, one subtest per count.
func testSortRowsCounts(t *testing.T, shape, rowLen int) {
	for _, n := range []int{0, 1, insertionRows - 1, insertionRows, insertionRows + 1, 700, 5000} {
		t.Run(fmt.Sprintf("%d", n), func(t *testing.T) {
			block := sortBlock(shape, n, rowLen)
			want := make([][]byte, n)
			for i := range want {
				want[i] = bytes.Clone(block[i*rowLen:][:rowLen])
			}
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })

			radixSortRows(block, rowLen)
			if len(block) != n*rowLen {
				t.Fatalf("block is %d bytes, want %d", len(block), n*rowLen)
			}
			for i := range want {
				if got := block[i*rowLen:][:rowLen]; !bytes.Equal(got, want[i]) {
					t.Fatalf("position %d: row %x, want %x", i, got, want[i])
				}
			}
		})
	}
}

// sortEntry and sortRowsIndex are the index radix sort radixSortRows
// replaced, kept as BenchmarkTeraLocalSort's baseline: a 16-byte {prefix,
// idx} entry per row (the row's first eight bytes, big-endian), LSD radix
// passes over the prefix ping-ponged through a second array, then runs of
// equal prefixes ordered by the rest of their rows. The rows never move; the
// caller walks them through the returned order.
type sortEntry struct {
	prefix uint64
	idx    int
}

func sortRowsIndex(block []byte, rowLen int) []sortEntry {
	n := len(block) / rowLen
	order := make([]sortEntry, n)
	var counts [8][256]int
	for i := range order {
		p := binary.BigEndian.Uint64(block[i*rowLen:])
		order[i] = sortEntry{prefix: p, idx: i}
		for d := range counts {
			counts[d][byte(p>>(8*d))]++
		}
	}
	spare := make([]sortEntry, n)
	for d := range counts {
		c, shift := &counts[d], 8*d
		if c[byte(order[0].prefix>>shift)] == n {
			continue
		}
		at := 0
		for b, rows := range c {
			c[b], at = at, at+rows
		}
		for _, ent := range order {
			b := byte(ent.prefix >> shift)
			spare[c[b]] = ent
			c[b]++
		}
		order, spare = spare, order
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && order[hi].prefix == order[lo].prefix {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b sortEntry) int {
				return bytes.Compare(block[a.idx*rowLen+8:][:rowLen-8], block[b.idx*rowLen+8:][:rowLen-8])
			})
		}
		lo = hi
	}
	return order
}

// sortRowsCompare is the comparison sort the index radix passes were chosen
// over: slices.SortFunc on the same entries, prefix first, the rest of the
// row on a tie.
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

// localSortSink keeps BenchmarkTeraLocalSort's walks from being optimized
// away.
var localSortSink byte

// BenchmarkTeraLocalSort times the in-rank sort on one rank's share of the
// bench/ terasort workload (65 536 default rows), each variant followed by
// the walk the sink makes over the rows in sorted order: radixSortRows
// under the shape's name, the index radix sort it replaced under
// "<shape>-index", and the comparison sort over the same index under
// "<shape>-compare". Restoring the unsorted block between iterations is not
// timed.
func BenchmarkTeraLocalSort(b *testing.B) {
	const n, rowLen = 1 << 16, DefaultTeraKeyBytes + DefaultTeraValBytes
	indexed := func(sortIndex func([]byte, int) []sortEntry) func([]byte) byte {
		return func(block []byte) (sum byte) {
			for _, ent := range sortIndex(block, rowLen) {
				sum += block[ent.idx*rowLen+rowLen-1]
			}
			return sum
		}
	}
	for shape, s := range sortShapes {
		input := sortBlock(shape, n, rowLen)
		block := make([]byte, len(input))
		for _, v := range []struct {
			suffix string
			run    func([]byte) byte
		}{
			{"", func(block []byte) (sum byte) {
				radixSortRows(block, rowLen)
				for off := rowLen - 1; off < len(block); off += rowLen {
					sum += block[off]
				}
				return sum
			}},
			{"-index", indexed(sortRowsIndex)},
			{"-compare", indexed(sortRowsCompare)},
		} {
			b.Run(s.name+v.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(block, input)
					b.StartTimer()
					localSortSink += v.run(block)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
