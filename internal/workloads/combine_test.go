package workloads

import (
	"encoding/binary"
	"fmt"
	"testing"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
)

// TestCombinersDoNotAllocate pins Int64VecAdd and WordCountCombine as
// in-place: merging into a hash bucket — what pr and cps do for every KV of
// a repeated key — must write the result into the entry's own bytes and
// allocate nothing, while still computing the right value and leaving the
// incoming value untouched.
func TestCombinersDoNotAllocate(t *testing.T) {
	lanes := func(vals ...int64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		return b
	}
	cases := []struct {
		name           string
		combine        core.CombineFunc
		first, another []byte
		want           func(merges int) []byte
	}{
		{"Int64VecAdd/1-lane", Int64VecAdd, lanes(1), lanes(2),
			func(n int) []byte { return lanes(1 + 2*int64(n)) }},
		{"Int64VecAdd/3-lane", Int64VecAdd, lanes(5, -7, 1), lanes(3, 4, 1),
			func(n int) []byte { return lanes(5+3*int64(n), -7+4*int64(n), 1+int64(n)) }},
		{"WordCountCombine", WordCountCombine, core.Uint64Bytes(3), wcOne,
			func(n int) []byte { return core.Uint64Bytes(3 + uint64(n)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := kvbuf.NewBucket(mem.NewArena(0), 4096)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Free()
			key := []byte("key")
			merge := func(existing, incoming []byte) ([]byte, error) {
				return tc.combine(key, existing, incoming)
			}
			if err := b.Upsert(key, tc.first, merge); err != nil {
				t.Fatal(err)
			}
			another := append([]byte(nil), tc.another...)
			merges := 0
			perMerge := testing.AllocsPerRun(100, func() {
				merges++
				if err := b.Upsert(key, tc.another, merge); err != nil {
					t.Fatal(err)
				}
			})
			if perMerge != 0 {
				t.Errorf("%.1f allocations per merge, want 0", perMerge)
			}
			got, _ := b.Get(key)
			if want := tc.want(merges); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after %d merges value = %v, want %v", merges, got, want)
			}
			if fmt.Sprint(tc.another) != fmt.Sprint(another) {
				t.Errorf("incoming value written: %v, was %v", tc.another, another)
			}
			if b.GarbageBytes() != 0 {
				t.Errorf("same-length merges left %d garbage bytes", b.GarbageBytes())
			}
		})
	}
}
