package spill

import (
	"bytes"
	"testing"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/pfs"
)

// fuzzHint mirrors the helper of internal/kvbuf/fuzz_test.go (test helpers
// are not importable across packages): it maps a pair of mode bytes to a
// Hint, sanitizing (k, v) so they are legal under it. Covers all nine
// combinations of varlen, Fixed, and StrZ on each side.
func fuzzHint(keyMode, valMode uint8, k, v []byte) (kvbuf.Hint, []byte, []byte) {
	side := func(mode uint8, b []byte) (kvbuf.LenMode, []byte) {
		switch mode % 3 {
		case 1:
			n := int(mode/3)%15 + 1
			fixed := make([]byte, n)
			copy(fixed, b)
			return kvbuf.Fixed(n), fixed
		case 2:
			return kvbuf.StrZ(), bytes.ReplaceAll(b, []byte{0}, []byte{1})
		}
		return kvbuf.Varlen(), b
	}
	km, k2 := side(keyMode, k)
	vm, v2 := side(valMode, v)
	return kvbuf.Hint{Key: km, Val: vm}, k2, v2
}

// FuzzSpillRoundTrip drives a store-backed KVC with arbitrary interleavings
// of appends, forced evictions, and pinning scans under every hint mode
// and both policies: the KV multiset must survive any evict/restore/pin
// sequence, and Free must leave the arena empty and the spill file gone
// (mirror of kvbuf's FuzzConvert, with the out-of-core store in the loop).
func FuzzSpillRoundTrip(f *testing.F) {
	f.Add([]byte("the quick brown fox the lazy dog the end"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("aaaa bb c dddddd bb aaaa"), uint8(2), uint8(0), uint8(3))
	f.Add([]byte{1, 2, 3, 0, 255, 254, 0, 9, 17, 45, 0, 1, 2}, uint8(0), uint8(4), uint8(7))
	f.Add([]byte("spill always and everywhere"), uint8(1), uint8(2), uint8(1))
	f.Add([]byte(""), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, keyMode, valMode, ctl uint8) {
		hint, _, _ := fuzzHint(keyMode, valMode, nil, nil)
		const pageSize = 128
		// Tight but workable arena: room for the append head, a pinned page,
		// and prefetch slack. Odd ctl selects the eager write-behind policy.
		arena := mem.NewArena(8 * pageSize)
		fs := pfs.New(pfs.Config{})
		policy := WhenNeeded
		if ctl%2 == 1 {
			policy = Always
		}
		store := NewStore(Config{Arena: arena, FS: fs, Name: "fuzz", Policy: policy})
		kvc := kvbuf.NewKVCOn(store, arena, pageSize, hint)

		// Slice the fuzz input into KVs (sanitized per hint), interleaving
		// forced evictions and mid-build scans driven by the input bytes.
		type kv struct{ k, v string }
		var want []kv
		for pos := 0; pos+2 <= len(data) && len(want) < 64; {
			klen := int(data[pos]%8) + 1
			vlen := int(data[pos+1] % 8)
			op := data[pos] % 7
			pos += 2
			if pos+klen+vlen > len(data) {
				break
			}
			_, k, v := fuzzHint(keyMode, valMode, data[pos:pos+klen], data[pos+klen:pos+klen+vlen])
			pos += klen + vlen
			if err := kvc.Append(k, v); err != nil {
				t.Fatalf("Append(%q, %q): %v", k, v, err)
			}
			want = append(want, kv{string(k), string(v)})
			switch op {
			case 0:
				if err := store.EvictAll(); err != nil {
					t.Fatalf("EvictAll: %v", err)
				}
			case 1:
				// Pin/unpin sweep mid-build: a scan touches every page.
				if err := kvc.Scan(func(k, v []byte) error { return nil }); err != nil {
					t.Fatalf("mid-build Scan: %v", err)
				}
			}
		}
		if arena.Capacity() > 0 && arena.Used() > arena.Capacity() {
			t.Fatalf("arena over capacity: %d > %d", arena.Used(), arena.Capacity())
		}

		// One more full eviction, then verify the multiset survived.
		if err := store.EvictAll(); err != nil {
			t.Fatalf("EvictAll: %v", err)
		}
		got := map[kv]int{}
		total := 0
		err := kvc.Scan(func(k, v []byte) error {
			got[kv{string(k), string(v)}]++
			total++
			return nil
		})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if total != len(want) {
			t.Fatalf("container holds %d KVs, appended %d", total, len(want))
		}
		for _, w := range want {
			if got[w] <= 0 {
				t.Fatalf("KV (%q, %q) lost through spill round trip", w.k, w.v)
			}
			got[w]--
		}

		kvc.Free()
		if arena.Used() != 0 {
			t.Fatalf("arena holds %d bytes after Free (leak)", arena.Used())
		}
		if fs.Size(store.Name()) != 0 {
			t.Fatalf("spill file not removed after last Free")
		}
	})
}
