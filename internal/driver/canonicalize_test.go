package driver

import (
	"bytes"
	mathrand "math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// canonicalizeOracle is the implementation sortLines + canonicalize
// replaced, kept as the reference: split every rank's buffer into lines,
// drop the empty ones, sort.Strings the lot, rebuild.
func canonicalizeOracle(gathered [][]byte) []byte {
	var lines []string
	for _, buf := range gathered {
		for _, l := range bytes.Split(buf, []byte{'\n'}) {
			if len(l) > 0 {
				lines = append(lines, string(l))
			}
		}
	}
	sort.Strings(lines)
	var all bytes.Buffer
	for _, l := range lines {
		all.WriteString(l)
		all.WriteByte('\n')
	}
	return all.Bytes()
}

// runCanonical is what RunJob does with the ranks' raw output: sortLines on
// each rank, canonicalize at rank 0.
func runCanonical(raw [][]byte) []byte {
	blocks := make([][]byte, len(raw))
	for r, b := range raw {
		blocks[r] = sortLines(b)
	}
	return canonicalize(blocks)
}

func joinLines(lines []string) []byte {
	var b []byte
	for _, l := range lines {
		b = append(append(b, l...), '\n')
	}
	return b
}

// TestCanonicalizeCases pins the corners by hand.
func TestCanonicalizeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []string // one per rank
		want string
	}{
		{"no ranks", nil, ""},
		{"all ranks empty", []string{"", "", ""}, ""},
		{"one non-empty rank", []string{"", "a 1\nb 2\n", ""}, "a 1\nb 2\n"},
		// '\n' sorts above 0x01 and ' ', the line end must not take part.
		{"prefix of another line", []string{"ab c\nab\n", "ab\x01\n"}, "ab\nab\x01\nab c\n"},
		{"prefix across sorted blocks", []string{"ab\n", "ab c\n"}, "ab\nab c\n"},
		{"duplicates within and across", []string{"x\nx\ny\n", "x\ny\n"}, "x\nx\nx\ny\ny\n"},
		{"bytes below 0x20 and above 0x7f", []string{"\xff\n\x01\n", "\x80 1\n\x7f\n\t\n"}, "\x01\n\t\n\x7f\n\x80 1\n\xff\n"},
		// No sink emits these; the replaced code dropped empty lines and
		// closed an open last line, and so does this one.
		{"empty lines are dropped", []string{"\n\nb\n\na\n\n", "\n"}, "a\nb\n"},
		{"open last line is closed", []string{"b\na", "c"}, "a\nb\nc\n"},
	} {
		raw := make([][]byte, len(tc.raw))
		for r, s := range tc.raw {
			raw[r] = []byte(s)
		}
		if got := runCanonical(raw); string(got) != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
		if want := canonicalizeOracle(raw); string(want) != tc.want {
			t.Errorf("%s: the oracle itself says %q, the case says %q", tc.name, want, tc.want)
		}
	}
}

// propLine draws a short line over an alphabet chosen to collide: few
// symbols, so duplicates and lines that are prefixes of others are common,
// with bytes on both sides of '\n', of ' ' and of 0x7f.
func propLine(rng *mathrand.Rand) string {
	const alphabet = "\x01\t \x1fab\x7f\x80\xff"
	b := make([]byte, 1+rng.Intn(4))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestCanonicalizeMatchesSortStrings: on random per-rank blocks — 1 to 8
// ranks, some empty — the per-rank sort plus rank 0's merge give exactly what
// splitting everything and sort.Strings gave. Three block shapes: lines in
// random order (every rank must sort), sorted ranks holding disjoint ranges
// in rank order (nothing sorts, rank 0 concatenates), and sorted ranks whose
// ranges interleave (nothing sorts, rank 0 merges); on the last two the test
// asserts that path is the one that ran. MIMIR_PROP_SEED reproduces a draw.
func TestCanonicalizeMatchesSortStrings(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("MIMIR_PROP_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad MIMIR_PROP_SEED %q: %v", v, err)
		}
		seed = n
	}
	qc := &quick.Config{MaxCount: 600, Rand: mathrand.New(mathrand.NewSource(seed))}
	shapes := [3]int{}
	err := quick.Check(func(draw int64) bool {
		rng := mathrand.New(mathrand.NewSource(draw))
		ranks := 1 + rng.Intn(8)
		shape := rng.Intn(3)
		perRank := make([][]string, ranks)
		switch shape {
		case 0: // unsorted
			for n := rng.Intn(40); n > 0; n-- {
				r := rng.Intn(ranks)
				perRank[r] = append(perRank[r], propLine(rng))
			}
		case 1: // sorted, disjoint, in rank order: cut one sorted pool
			pool := make([]string, rng.Intn(40))
			for i := range pool {
				pool[i] = propLine(rng)
			}
			sort.Strings(pool)
			for r := 0; r < ranks && len(pool) > 0; r++ {
				n := rng.Intn(len(pool) + 1)
				if r == ranks-1 {
					n = len(pool)
				}
				perRank[r], pool = pool[:n], pool[n:]
			}
		case 2: // sorted, interleaved: deal distinct lines round-robin
			if ranks < 2 {
				ranks, perRank = 2, make([][]string, 2)
			}
			distinct := map[string]bool{}
			for len(distinct) < 2*ranks {
				distinct[propLine(rng)+propLine(rng)] = true
			}
			pool := make([]string, 0, len(distinct))
			for l := range distinct {
				pool = append(pool, l)
			}
			sort.Strings(pool)
			for i, l := range pool {
				perRank[i%ranks] = append(perRank[i%ranks], l)
			}
			// Duplicates within and across ranks only widen the overlap.
			for n := rng.Intn(10); n > 0; n-- {
				r := rng.Intn(ranks)
				perRank[r] = append(perRank[r], pool[rng.Intn(len(pool))])
			}
			for r := range perRank {
				sort.Strings(perRank[r])
			}
		}
		raw := make([][]byte, ranks)
		for r := range raw {
			raw[r] = joinLines(perRank[r])
		}
		want := canonicalizeOracle(raw)
		if got := runCanonical(raw); !bytes.Equal(got, want) {
			t.Errorf("draw %d shape %d: got %q, want %q from %q", draw, shape, got, want, raw)
			return false
		}
		if shape > 0 {
			for r, b := range raw {
				if s := sortLines(b); len(b) > 0 && &s[0] != &b[0] {
					t.Errorf("draw %d: rank %d's sorted block %q was sorted again", draw, r, b)
					return false
				}
			}
			if inOrder := blocksInOrder(raw); inOrder != (shape == 1) {
				t.Errorf("draw %d shape %d: blocksInOrder(%q) = %v", draw, shape, raw, inOrder)
				return false
			}
			if got := mergeLines(raw); !bytes.Equal(got, want) {
				t.Errorf("draw %d shape %d: mergeLines gave %q, want %q", draw, shape, got, want)
				return false
			}
		}
		shapes[shape]++
		return true
	}, qc)
	if err != nil {
		t.Fatal(err)
	}
	for shape, n := range shapes {
		if n == 0 {
			t.Errorf("shape %d never drawn", shape)
		}
	}
}

// FuzzCanonicalize feeds arbitrary bytes — empty lines, open last lines, any
// byte value — cut into up to 8 rank blocks at 0x00.
func FuzzCanonicalize(f *testing.F) {
	for _, seed := range []string{
		"", "\x00\x00", "b 2\na 1\n", "a\nb\n\x00c\nd\n", "a\nc\n\x00b\nd\n",
		"ab c\nab\n\x00ab\x01\n", "\n\nb\n\na\x00\n\x00c", "x\nx\n\x00x\n\x00\x00x\nw\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := bytes.SplitN(data, []byte{0}, 8)
		// A block's bytes are the rank's own: give each its own backing.
		for r := range raw {
			raw[r] = bytes.Clone(raw[r])
		}
		want := canonicalizeOracle(raw)
		if got := runCanonical(raw); !bytes.Equal(got, want) {
			t.Fatalf("got %q, want %q from %q", got, want, raw)
		}
		// What came out is canonical: running it again changes nothing.
		if again := runCanonical([][]byte{want}); !bytes.Equal(again, want) {
			t.Fatalf("not a fixed point: %q became %q", want, again)
		}
		if strings.Contains(string(want), "\n\n") {
			t.Fatalf("empty line survived in %q", want)
		}
	})
}
